(** Systematic schedule exploration: a stateless DPOR model checker
    for the PVM, driven through {!Hw.Engine}'s scheduling choice-point
    API.

    The engine's only nondeterminism is the dispatch order of ready
    tasks at equal simulated times; a schedule is the sequence of
    choices made at multi-ready dispatches.  The explorer re-executes
    a scenario thunk from scratch under controlled schedules, walking
    the choice tree by DFS with dynamic partial-order reduction
    (Flanagan–Godefroid): a vector-clock race analysis over
    fragment-level slice footprints seeds backtrack points, and sleep
    sets discard the remaining redundant interleavings.  Two slices
    are independent unless they touch the same (cache, offset)
    fragment or the same coarse object class (frame pool / reclaim
    queue, cache-context topology — see {!Core.Types}).

    Each explored schedule runs the {!Sanitizer}'s structural tier
    after every engine event and its full tier at quiescence, and its
    observable outcome is checked against the scenario's refinement
    oracle.  The module also owns what every checker shares: the one
    {!scenario} type, the one execution function {!execute} with its
    failure classifier, and the one forced replay {!replay}. *)

type oracle =
  | Schedule_independent
      (** every schedule must produce the digest of the first one *)
  | Outcomes of (string, unit) Hashtbl.t Lazy.t
      (** every schedule's digest must be a member — typically
          {!Model.outcomes}, forced only if a schedule completes *)
  | No_oracle

type scenario = {
  name : string;
  run : Hw.Engine.t -> register:(Core.Types.pvm -> unit) -> unit -> string;
      (** Build and start the workload on a fresh engine, calling
          [register] for every PVM the sanitizer should sweep; return
          the observation thunk the explorer then invokes, still
          inside the simulation, to digest the schedule's observable
          outcome.  The thunk must itself synchronize with the
          workload — block (e.g. on a {!Hw.Engine.Cond}) until the
          outcome is final, as {!of_program}'s join does.  Must be
          deterministic given the schedule. *)
  oracle : oracle;  (** what every explored schedule's digest must meet *)
}
(** The one scenario shape: what [chorus check], [explore], [replay]
    and [crossval] run. *)

val observe_digests : Core.Types.pvm list -> unit -> string
(** The observation of a scenario judged by its state alone: the
    concatenated {!Core.Inspect.digest}s of the PVMs at call time. *)

val start : Hw.Engine.t -> scenario -> Core.Types.pvm list
(** Build and start the workload (call inside the simulation) and
    return the PVMs it registered, in registration order; the
    observation thunk is dropped.  For runs that only want the PVMs
    once the engine drains: crossval, trace, stats, benchmarks. *)

type outcome = {
  o_kind : string;
      (** ["done"], ["sleep"], ["invariant"], ["deadlock"],
          ["watchdog"], ["divergence"] or ["crash"] *)
  o_detail : string;  (** digest when done; diagnostic otherwise *)
  o_digests : string list;
      (** {!Core.Inspect.digest} per registered PVM, registration
          order, at completion or at the failure point *)
  o_rules : string list;
      (** rule ids of the sanitizer sweep that failed, over every
          failing PVM, sorted, deduplicated; empty unless
          [o_kind = "invariant"] *)
}

val execute :
  every_event:bool ->
  max_steps:int ->
  Hw.Engine.t ->
  scenario ->
  outcome * Core.Types.pvm list
(** Run the scenario once on a fresh engine the caller has prepared
    (scheduler, tie-break, tracer, flight recorder, watchdog) and
    classify how the run ends; also returns the registered PVMs.
    Installs the engine's event hook: it ends the run as a
    ["divergence"] past [max_steps] engine events and, with
    [every_event], runs the sanitizer's structural tier over every
    registered PVM.  Once the engine drains, the strict tier sweeps
    them all.  The DFS, {!replay} and [chorus check] all run through
    this. *)

type stats = {
  mutable schedules : int;  (** complete schedules executed *)
  mutable sleep_blocked : int;  (** runs abandoned inside a sleep set *)
  mutable sleep_skips : int;  (** backtrack branches skipped as slept *)
  mutable bound_pruned : int;  (** branches over the preemption bound *)
  mutable races : int;  (** reversible races found *)
  mutable steps_total : int;  (** engine events across all schedules *)
  mutable max_depth : int;  (** deepest choice stack *)
  mutable distinct_outcomes : int;
  mutable exhausted : bool;
      (** the full (bounded) choice tree was explored; false when
          [max_schedules] stopped the search first *)
}

type violation = {
  v_kind : string;
      (** an {!outcome} kind other than ["done"] and ["sleep"], or an
          oracle verdict: ["digest-divergence"] or
          ["non-serializable"] *)
  v_detail : string;
  v_schedule : int list;
      (** fibre chosen at each multi-ready choice point, in order —
          feed to {!replay} *)
}

type result = {
  r_stats : stats;
  r_violation : violation option;  (** the first violation; the search
                                       stops at it *)
  r_outcomes : (string, int) Hashtbl.t;  (** digest -> schedules *)
}

val run :
  ?bound:int -> ?max_schedules:int -> ?max_steps:int -> scenario -> result
(** Explore the scenario's schedules, each swept by the sanitizer's
    structural tier after every engine event and its strict tier at
    quiescence, and judged by the scenario's oracle.  Without [bound]
    the search is exhaustive with DPOR pruning; with [bound k] it is
    a plain DFS over schedules using at most [k] preemptions
    (switches away from a still-ready fibre) — the two prunings are
    not combined because sleep sets are unsound under a preemption
    bound.  [max_schedules] caps executed runs (sets
    [exhausted = false] when hit) and must be at least 1
    ([Invalid_argument] otherwise); [max_steps] (default 200_000)
    bounds one schedule's engine events. *)

val replay :
  ?max_steps:int ->
  scenario ->
  int list ->
  outcome * Hw.Engine.t * Core.Types.pvm list
(** The one forced replay: re-run a recorded schedule (a
    {!violation.v_schedule} or a bundle's decision log) on a fresh
    engine carrying an enabled flight recorder and the watchdog,
    sweeping as {!run} does.  At the d-th multi-ready dispatch it
    runs the fibre the schedule names; when that fibre is not ready
    the run ends as a ["divergence"] naming the decision, the wanted
    fibre and the ready ones.  Dispatches past the recorded prefix
    take the FIFO default.  Returns the engine and PVMs for bundling
    the end state. *)

val of_program :
  name:string -> frames:int -> pages:int -> Model.prog -> scenario
(** Lift a {!Model} program into a scenario over a site of [frames]
    8 KB frames with a swap store of real latency, and one context
    whose [pages]-page anonymous region covers the program's address
    space.  One fibre per program row executes its operations through
    {!Core.Pvm.read}/[write] (each operation must stay within one
    page); the observation digest is {!Model.digest_outcome} over the
    read-back final contents and per-fibre read results, and the
    oracle is [Outcomes] of {!Model.outcomes}.
    @raise Invalid_argument at run time on an operation that spans
    pages. *)

val pressure : scenario
(** Two workers over three pages and two frames, so every operation
    contends for a frame: the fixture that deterministically
    reproduces both {!For_testing} races, and CI's forced-failure
    scenario. *)

val contend_model : scenario
(** [chorus explore contend]: three workers over three pages and three
    frames, writing a page another worker writes too — a genuine value
    race with several legal serializations. *)

val pp_stats : Format.formatter -> stats -> unit
val pp_violation : Format.formatter -> violation -> unit

(** Test-only fault injection: flags re-exported from {!Core.Pager}
    and {!Core.Install} that reintroduce two historical races, for the
    mutation tests asserting the explorer catches them. *)
module For_testing : sig
  val evict_claim_late : bool ref
  val skip_insert_probe : bool ref
end
