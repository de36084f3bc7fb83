(** Oracle-twin cross-validation: run the same workload on the
    cooperative sequential engine and on the domain-parallel engine
    and require identical observable state.

    The sequential engine is the reference semantics — every checker
    (DPOR, sanitizer, flight recorder) is defined against it.  The
    parallel engine must refine it: for workloads whose outcome is
    schedule-independent (serial-class programs, or programs whose
    racing fibres touch disjoint fragments), {!Core.Inspect.digest}
    after the run must be byte-identical on both engines at any domain
    count.  This module is that comparison, plus the contended
    many-context fault workload ("storm") used both here and by the
    throughput benchmark. *)

type outcome = {
  o_name : string;
  o_seq : string;  (** concatenated digests on the sequential engine *)
  o_par : string;  (** same, on the parallel engine *)
  o_domains : int;
  o_ok : bool;
}

val storm :
  ?workers:int ->
  ?pages:int ->
  ?rounds:int ->
  ?shards:int ->
  unit ->
  Explore.scenario
(** The contended fault workload: [workers] fibres (default 8), each
    in its own context with a private anonymous cache of [pages] pages
    (default 16), all sharing one read-only pre-filled cache.  Each
    worker round (default 4 rounds) zero-fill-faults and rewrites its
    private pages in a worker-skewed order and reads a shared page, so
    the global map, the frame pool and the pmap see concurrent traffic
    from every worker while the final state stays deterministic: pages
    are disjoint per worker and every write is a pure function of
    (worker, page).  Workers get distinct affinities, so on a parallel
    engine they genuinely overlap; the frame pool is sized so nothing
    is ever evicted. *)

val storm_faults : workers:int -> pages:int -> int
(** Lower bound on the demand-zero faults one [storm] run generates
    (private pages only) — the work unit the throughput benchmark
    divides wall-clock time by. *)

val run_on : ?domains:int -> Explore.scenario -> string
(** Run the scenario on a fresh engine ([domains = 0]: sequential, the
    default) until it drains and return the concatenated
    {!Core.Inspect.digest}s of the PVMs it registered.  The scenario
    must produce a schedule-independent final state (see above);
    worker fibres may use non-zero [affinity] to actually exercise the
    domain pool. *)

val run_pair : ?domains:int -> Explore.scenario -> outcome
(** Run the scenario on the sequential engine, then again from scratch
    on a parallel engine with [domains] workers (default 4, at least 1;
    [Invalid_argument] otherwise), and compare digests. *)

val pp_outcome : Format.formatter -> outcome -> unit
