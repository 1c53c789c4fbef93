"""Ready-made synthetic databases mirroring the benchmarks in the tutorial.

Three databases, matching the three benchmark styles §2.3 discusses:

- :func:`make_imdb_lite` -- a JOB-style movie schema (title / cast_info /
  movie_companies / movie_keyword / person / company) with PK-FK joins and
  moderate correlation: the "many joins on real-ish data" regime.
- :func:`make_stats_lite` -- a STATS-style StackExchange schema (users /
  posts / comments / votes / badges) with *heavy* skew, strong cross-column
  correlation and non-key join fan-outs: the regime that defeats
  independence-based estimators.
- :func:`make_tpch_lite` -- a TPC-H-ish star schema with near-independent
  uniform attributes: the "easy" contrast point.

All generators take a ``scale`` multiplier and a ``seed``; table sizes are
chosen so the default scale runs the whole test suite in seconds while the
benchmarks can raise it.
"""

from __future__ import annotations

import numpy as np

from repro.storage.catalog import Database, JoinEdge
from repro.storage.generate import (
    correlated_column,
    fk_column,
    mixture_column,
    uniform_int_column,
    zipf_column,
)
from repro.storage.table import Column, Table

__all__ = ["make_imdb_lite", "make_stats_lite", "make_tpch_lite", "make_ssb_lite"]


def make_imdb_lite(scale: float = 1.0) -> Database:
    """JOB-style movie database; ~9k rows total at scale 1."""
    rng = np.random.default_rng(0)
    n_title = max(int(2000 * scale), 50)
    n_person = max(int(1500 * scale), 40)
    n_company = max(int(200 * scale), 10)
    n_cast = max(int(4000 * scale), 80)
    n_mc = max(int(1200 * scale), 40)
    n_mk = max(int(1500 * scale), 40)

    title_id = np.arange(n_title, dtype=np.int64)
    kind_id = zipf_column(n_title, 7, 1.2, rng)
    production_year = (1950 + zipf_column(n_title, 74, 0.4, rng)).astype(np.int64)
    # Votes correlate with year (newer movies have more votes) and rating
    # correlates with votes -- the correlations JOB queries exploit.
    votes_base = correlated_column(production_year - 1950, 50, 0.6, rng)
    votes = (votes_base * 200 + rng.integers(0, 200, n_title)).astype(np.int64)
    rating = correlated_column(votes_base, 10, 0.5, rng) + 1
    title = Table(
        "title",
        [
            Column("id", title_id, is_key=True),
            Column("kind_id", kind_id),
            Column("production_year", production_year),
            Column("votes", votes),
            Column("rating", rating.astype(np.int64)),
        ],
    )

    person_id = np.arange(n_person, dtype=np.int64)
    gender = zipf_column(n_person, 3, 0.8, rng)
    birth_decade = (190 + zipf_column(n_person, 11, 0.5, rng)).astype(np.int64)
    person = Table(
        "person",
        [
            Column("id", person_id, is_key=True),
            Column("gender", gender),
            Column("birth_decade", birth_decade),
        ],
    )

    company_id = np.arange(n_company, dtype=np.int64)
    country = zipf_column(n_company, 12, 1.0, rng)
    company = Table(
        "company",
        [
            Column("id", company_id, is_key=True),
            Column("country", country),
        ],
    )

    ci_movie = fk_column(n_cast, title_id, 1.1, rng)
    ci_person = fk_column(n_cast, person_id, 0.9, rng)
    role_id = correlated_column(gender[ci_person], 12, 0.5, rng)
    cast_info = Table(
        "cast_info",
        [
            Column("movie_id", ci_movie),
            Column("person_id", ci_person),
            Column("role_id", role_id),
        ],
    )

    mc_movie = fk_column(n_mc, title_id, 0.8, rng)
    mc_company = fk_column(n_mc, company_id, 1.3, rng)
    company_type = zipf_column(n_mc, 4, 0.7, rng)
    movie_companies = Table(
        "movie_companies",
        [
            Column("movie_id", mc_movie),
            Column("company_id", mc_company),
            Column("company_type", company_type),
        ],
    )

    mk_movie = fk_column(n_mk, title_id, 1.0, rng)
    keyword_id = correlated_column(kind_id[mk_movie], 120, 0.55, rng)
    movie_keyword = Table(
        "movie_keyword",
        [
            Column("movie_id", mk_movie),
            Column("keyword_id", keyword_id),
        ],
    )

    joins = [
        JoinEdge("cast_info", "movie_id", "title", "id"),
        JoinEdge("cast_info", "person_id", "person", "id"),
        JoinEdge("movie_companies", "movie_id", "title", "id"),
        JoinEdge("movie_companies", "company_id", "company", "id"),
        JoinEdge("movie_keyword", "movie_id", "title", "id"),
    ]
    return Database(
        "imdb_lite",
        [title, person, company, cast_info, movie_companies, movie_keyword],
        joins,
    )


def make_stats_lite(scale: float = 1.0, seed: int = 0) -> Database:
    """STATS-style StackExchange database with heavy skew/correlation."""
    rng = np.random.default_rng(seed + 1)
    n_users = max(int(1200 * scale), 40)
    n_posts = max(int(3000 * scale), 60)
    n_comments = max(int(4000 * scale), 80)
    n_votes = max(int(5000 * scale), 80)
    n_badges = max(int(1500 * scale), 40)

    user_id = np.arange(n_users, dtype=np.int64)
    reputation_bucket = zipf_column(n_users, 40, 1.6, rng)
    upvotes = correlated_column(reputation_bucket, 60, 0.8, rng)
    downvotes = correlated_column(upvotes, 25, 0.7, rng)
    creation_bucket = zipf_column(n_users, 15, 0.6, rng)
    users = Table(
        "users",
        [
            Column("id", user_id, is_key=True),
            Column("reputation", reputation_bucket),
            Column("upvotes", upvotes),
            Column("downvotes", downvotes),
            Column("creation_bucket", creation_bucket),
        ],
    )

    post_id = np.arange(n_posts, dtype=np.int64)
    owner_id = fk_column(n_posts, user_id, 1.4, rng)
    post_type = zipf_column(n_posts, 5, 1.8, rng)
    score = correlated_column(reputation_bucket[owner_id], 30, 0.75, rng)
    view_count = correlated_column(score, 80, 0.7, rng)
    tag_id = zipf_column(n_posts, 60, 1.3, rng)
    posts = Table(
        "posts",
        [
            Column("id", post_id, is_key=True),
            Column("owner_id", owner_id),
            Column("post_type", post_type),
            Column("score", score),
            Column("view_count", view_count),
            Column("tag_id", tag_id),
        ],
    )

    c_post = fk_column(n_comments, post_id, 1.5, rng)
    c_user = fk_column(n_comments, user_id, 1.2, rng)
    c_score = correlated_column(score[c_post], 15, 0.6, rng)
    comments = Table(
        "comments",
        [
            Column("post_id", c_post),
            Column("user_id", c_user),
            Column("score", c_score),
        ],
    )

    v_post = fk_column(n_votes, post_id, 1.7, rng)
    vote_type = zipf_column(n_votes, 10, 1.5, rng)
    bounty = correlated_column(vote_type, 12, 0.5, rng)
    votes = Table(
        "votes",
        [
            Column("post_id", v_post),
            Column("vote_type", vote_type),
            Column("bounty", bounty),
        ],
    )

    b_user = fk_column(n_badges, user_id, 1.3, rng)
    badge_class = correlated_column(reputation_bucket[b_user], 3, 0.7, rng)
    badge_date = zipf_column(n_badges, 15, 0.5, rng)
    badges = Table(
        "badges",
        [
            Column("user_id", b_user),
            Column("class", badge_class),
            Column("date_bucket", badge_date),
        ],
    )

    joins = [
        JoinEdge("posts", "owner_id", "users", "id"),
        JoinEdge("comments", "post_id", "posts", "id"),
        JoinEdge("comments", "user_id", "users", "id"),
        JoinEdge("votes", "post_id", "posts", "id"),
        JoinEdge("badges", "user_id", "users", "id"),
    ]
    return Database("stats_lite", [users, posts, comments, votes, badges], joins)


def make_tpch_lite() -> Database:
    """TPC-H-ish star schema with near-uniform, near-independent attributes
    (3,000 lineitems)."""
    rng = np.random.default_rng(2)
    n_cust, n_supp, n_part, n_orders, n_line = 300, 50, 400, 1250, 3000

    cust_id = np.arange(n_cust, dtype=np.int64)
    customer = Table(
        "customer",
        [
            Column("id", cust_id, is_key=True),
            Column("nation", uniform_int_column(n_cust, 0, 24, rng)),
            Column("segment", uniform_int_column(n_cust, 0, 4, rng)),
        ],
    )

    supp_id = np.arange(n_supp, dtype=np.int64)
    supplier = Table(
        "supplier",
        [
            Column("id", supp_id, is_key=True),
            Column("nation", uniform_int_column(n_supp, 0, 24, rng)),
        ],
    )

    part_id = np.arange(n_part, dtype=np.int64)
    part = Table(
        "part",
        [
            Column("id", part_id, is_key=True),
            Column("brand", uniform_int_column(n_part, 0, 24, rng)),
            Column("size", uniform_int_column(n_part, 1, 50, rng)),
        ],
    )

    order_id = np.arange(n_orders, dtype=np.int64)
    orders = Table(
        "orders",
        [
            Column("id", order_id, is_key=True),
            Column("cust_id", fk_column(n_orders, cust_id, 0.1, rng)),
            Column("order_year", uniform_int_column(n_orders, 1992, 1998, rng)),
            Column("priority", uniform_int_column(n_orders, 0, 4, rng)),
        ],
    )

    qty = uniform_int_column(n_line, 1, 50, rng)
    price = np.round(mixture_column(n_line, [(1.0, 500.0, 150.0)], rng), 2)
    lineitem = Table(
        "lineitem",
        [
            Column("order_id", fk_column(n_line, order_id, 0.1, rng)),
            Column("part_id", fk_column(n_line, part_id, 0.2, rng)),
            Column("supp_id", fk_column(n_line, supp_id, 0.1, rng)),
            Column("quantity", qty),
            Column("price", np.maximum(price, 1.0)),
            Column("discount", uniform_int_column(n_line, 0, 10, rng)),
        ],
    )

    joins = [
        JoinEdge("orders", "cust_id", "customer", "id"),
        JoinEdge("lineitem", "order_id", "orders", "id"),
        JoinEdge("lineitem", "part_id", "part", "id"),
        JoinEdge("lineitem", "supp_id", "supplier", "id"),
    ]
    return Database(
        "tpch_lite", [customer, supplier, part, orders, lineitem], joins
    )


def make_ssb_lite() -> Database:
    """Star Schema Benchmark-ish database [46]: one denormalized fact table
    (lineorder, 3,500 rows) star-joined to four dimensions.  Pure star shape
    -- every query joins through the fact table -- which is the workload
    pattern SSB exists to isolate."""
    rng = np.random.default_rng(3)
    n_date, n_cust, n_supp, n_part, n_fact = 60, 250, 60, 350, 3500

    date_id = np.arange(n_date, dtype=np.int64)
    ddate = Table(
        "ddate",
        [
            Column("id", date_id, is_key=True),
            Column("year", (1992 + date_id // 12 % 7).astype(np.int64)),
            Column("month", (date_id % 12 + 1).astype(np.int64)),
            Column("weeknum", uniform_int_column(n_date, 1, 53, rng)),
        ],
    )

    cust_id = np.arange(n_cust, dtype=np.int64)
    customer = Table(
        "customer",
        [
            Column("id", cust_id, is_key=True),
            Column("region", uniform_int_column(n_cust, 0, 4, rng)),
            Column("nation", uniform_int_column(n_cust, 0, 24, rng)),
            Column("segment", uniform_int_column(n_cust, 0, 4, rng)),
        ],
    )

    supp_id = np.arange(n_supp, dtype=np.int64)
    supplier = Table(
        "supplier",
        [
            Column("id", supp_id, is_key=True),
            Column("region", uniform_int_column(n_supp, 0, 4, rng)),
            Column("nation", uniform_int_column(n_supp, 0, 24, rng)),
        ],
    )

    part_id = np.arange(n_part, dtype=np.int64)
    part = Table(
        "part",
        [
            Column("id", part_id, is_key=True),
            Column("mfgr", uniform_int_column(n_part, 0, 4, rng)),
            Column("category", uniform_int_column(n_part, 0, 24, rng)),
            Column("brand", uniform_int_column(n_part, 0, 39, rng)),
        ],
    )

    lineorder = Table(
        "lineorder",
        [
            Column("date_id", fk_column(n_fact, date_id, 0.3, rng)),
            Column("cust_id", fk_column(n_fact, cust_id, 0.2, rng)),
            Column("supp_id", fk_column(n_fact, supp_id, 0.2, rng)),
            Column("part_id", fk_column(n_fact, part_id, 0.3, rng)),
            Column("quantity", uniform_int_column(n_fact, 1, 50, rng)),
            Column("discount", uniform_int_column(n_fact, 0, 10, rng)),
            Column(
                "revenue",
                np.maximum(
                    np.round(mixture_column(n_fact, [(1.0, 3000.0, 900.0)], rng)),
                    1.0,
                ).astype(np.int64),
            ),
        ],
    )

    joins = [
        JoinEdge("lineorder", "date_id", "ddate", "id"),
        JoinEdge("lineorder", "cust_id", "customer", "id"),
        JoinEdge("lineorder", "supp_id", "supplier", "id"),
        JoinEdge("lineorder", "part_id", "part", "id"),
    ]
    return Database(
        "ssb_lite", [ddate, customer, supplier, part, lineorder], joins
    )
