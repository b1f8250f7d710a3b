(** Semantic estimate cache (DESIGN.md §16): memoized estimates keyed by
    {!Lpp_pattern.Canon} canonical form, configuration and catalog epoch.

    Two levels. {!t} is the per-session/per-domain front — open-addressed,
    with an allocation-free, lock-free hit path — and an optional shared
    {!l2} behind it lets many domains (e.g. serve workers) reuse each other's
    estimates. The L2 is one table under one mutex; its memory is
    [Mem_size]-accounted and bounded by a byte budget: when the next entry
    would take it past the budget, the table is emptied first.

    Correctness guarantees, pinned by [test_cache]:
    - a hit returns the exact float bits a miss computed ({!estimate} is
      bit-identical to {!Lpp_core.Estimator.session_estimate});
    - a front answers only for the catalog it was created on; L2 keys
      start with that catalog's {!Lpp_stats.Catalog.epoch}, so fronts over
      different catalogs (or over successive snapshots of one
      {!Lpp_stats.Catalog.Builder}) never see each other's entries;
    - L2 bytes never exceed the configured budget. *)

(** {1 Shared level (L2)} *)

type l2
(** A shared cache safe for concurrent use from any number of domains. *)

val create_l2 : budget_bytes:int -> unit -> l2
(** An empty L2 holding at most [budget_bytes] accounted bytes (a negative
    budget is 0). An entry larger than the budget is not cached; one that
    would take the held bytes past it first empties the table. *)

type l2_stats = {
  l2_evictions : int;  (** entries dropped by emptying the table *)
  l2_entries : int;
  l2_bytes : int;  (** accounted bytes currently held — never > budget *)
  l2_budget : int;
}

val l2_stats : l2 -> l2_stats

(** {1 Counters}

    Always-on (not gated on the [Lpp_obs] switch) so the serving layer can
    surface them per worker; written only by the owning domain — readers on
    other domains may see slightly stale word-sized values, never torn ones.
    They are the only count of these events: serve exports them as its
    [serve.cache.*] series. *)

type counters = {
  mutable c_hits : int;  (** L1 hits *)
  mutable c_shared_hits : int;  (** L1 misses answered by the shared L2 *)
  mutable c_misses : int;  (** estimates actually computed *)
  mutable c_bytes : int;  (** bytes of materialized L1 keys *)
}

(** {1 Per-session front} *)

type t
(** One per domain, like the {!Lpp_core.Estimator.session} it wraps — the L1
    arrays and canonicalization scratch are not thread-safe. *)

val create :
  ?l1_slots:int ->
  ?l2:l2 ->
  ?counters:counters ->
  Config.t ->
  Lpp_stats.Catalog.t ->
  t
(** [l1_slots] (default 1024, rounded up to a power of two) bounds the
    per-session table; L1 entries are overwritten, never evicted. Misses are
    computed on a private estimator session. When [l2] is given, misses
    consult it before computing and publish what they compute. [counters]
    shares one counter record across several caches (e.g. a worker's
    per-config fronts) so the owner reads one aggregate. *)

val estimate : t -> Lpp_pattern.Algebra.t -> float
(** Cached {!Lpp_core.Estimator.session_estimate} — bit-identical to it,
    whether the answer came from L1, L2 or a fresh computation. *)

val estimate_pattern : t -> Lpp_pattern.Pattern.t -> float
(** [Lpp_pattern.Planner.plan] followed by {!estimate}. *)

val shared : t -> l2 option

val counters : t -> counters
