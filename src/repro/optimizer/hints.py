"""Hint sets: Bao-style operator enable/disable flags.

A :class:`HintSet` is the planner's steering surface used by Bao [37] and
AutoSteer [1]: each flag allows or forbids one operator family during plan
enumeration.  :meth:`HintSet.bao_arms` returns the standard arm collection a
Bao-style optimizer chooses among.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.plans import JoinMethod, ScanMethod

__all__ = ["HintSet"]


@dataclass(frozen=True)
class HintSet:
    """Operator-family switches honoured by the plan enumerator."""

    enable_hash_join: bool = True
    enable_nested_loop: bool = True
    enable_merge_join: bool = True
    enable_seq_scan: bool = True
    enable_index_scan: bool = True

    def __post_init__(self) -> None:
        if not (self.enable_hash_join or self.enable_nested_loop or self.enable_merge_join):
            raise ValueError("at least one join method must remain enabled")
        if not (self.enable_seq_scan or self.enable_index_scan):
            raise ValueError("at least one scan method must remain enabled")

    @property
    def join_methods(self) -> tuple[JoinMethod, ...]:
        methods = []
        if self.enable_hash_join:
            methods.append(JoinMethod.HASH)
        if self.enable_nested_loop:
            methods.append(JoinMethod.NESTED_LOOP)
        if self.enable_merge_join:
            methods.append(JoinMethod.MERGE)
        return tuple(methods)

    @property
    def scan_methods(self) -> tuple[ScanMethod, ...]:
        methods = []
        if self.enable_seq_scan:
            methods.append(ScanMethod.SEQ)
        if self.enable_index_scan:
            methods.append(ScanMethod.INDEX)
        return tuple(methods)

    def name(self) -> str:
        """Short stable identifier, e.g. ``hash+nlj+merge/seq+idx``."""
        joins = "+".join(
            n
            for n, on in (
                ("hash", self.enable_hash_join),
                ("nlj", self.enable_nested_loop),
                ("merge", self.enable_merge_join),
            )
            if on
        )
        scans = "+".join(
            n
            for n, on in (
                ("seq", self.enable_seq_scan),
                ("idx", self.enable_index_scan),
            )
            if on
        )
        return f"{joins}/{scans}"

    @classmethod
    def default(cls) -> "HintSet":
        return cls()

    @classmethod
    def bao_arms(cls) -> list["HintSet"]:
        """The hint-set arms a Bao-style optimizer selects among.

        Bao's arms are subsets of disabled operators; we use the standard
        collection: all operators, each single join method, join-method
        pairs, and scan restrictions -- 12 valid arms.
        """
        arms: list[HintSet] = [cls()]
        # Single join methods.
        arms.append(cls(enable_nested_loop=False, enable_merge_join=False))
        arms.append(cls(enable_hash_join=False, enable_merge_join=False))
        arms.append(cls(enable_hash_join=False, enable_nested_loop=False))
        # Join-method pairs.
        arms.append(cls(enable_merge_join=False))
        arms.append(cls(enable_nested_loop=False))
        arms.append(cls(enable_hash_join=False))
        # Scan restrictions combined with the most impactful join settings.
        arms.append(cls(enable_index_scan=False))
        arms.append(cls(enable_seq_scan=False))
        arms.append(cls(enable_nested_loop=False, enable_index_scan=False))
        arms.append(cls(enable_merge_join=False, enable_seq_scan=False))
        arms.append(cls(enable_hash_join=False, enable_index_scan=False))
        return arms
