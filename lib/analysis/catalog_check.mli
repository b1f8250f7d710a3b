(** Catalog consistency checker: verifies the invariants the estimator's
    accuracy argument relies on (Section 4's statistics definitions).

    Codes (stable), all located at [Stats _]:
    - [LPP-C001] (Error): NC negativity or [nc ℓ > NC(✱)].
    - [LPP-C002] (Error): wildcard dominance violated — an RC entry exceeds
      one of its partial-wildcard projections
      ([rc(ℓ₁,t,ℓ₂) ≤ rc(*,t,ℓ₂)], [≤ rc(ℓ₁,t,*)], [≤ rc(ℓ₁,*,ℓ₂)]).
    - [LPP-C003] (Error): cross-table totals disagree (per-type totals vs.
      relationship total vs. fully-wildcarded RC projections).
    - [LPP-C004] (Error): negative RC entry.
    - [LPP-C005] (Error): label hierarchy contains a cycle (two labels that
      are strict sublabels of each other).
    - [LPP-C006] (Error): sublabel count monotonicity violated —
      [a ⊑ b] but [nc a > nc b].
    - [LPP-C007] (Error): partition malformed (member out of range, label in
      two clusters or in none, [cluster_of] inconsistent with [clusters]).
    - [LPP-C008] (Warning): hierarchy/partition label dimension differs from
      the catalog's label count.
    - [LPP-C009]: retired, never reused. It compared a frozen catalog with
      its own mutable tables; a catalog now has one read path.

    A catalog fresh from [Catalog.build]/[build_with] passes with no
    diagnostics. Per-code output is capped; a final [Hint] reports
    how many further findings were suppressed. *)

val run : Lpp_stats.Catalog.t -> Diagnostic.t list
