(** Crash forensics: assemble {!Obs.Bundle}s from failed runs and
    re-drive them deterministically.

    {!Obs.Bundle} is the dumb container; this module is the glue that
    can see the engine and the PVM.  Three entry points:

    - {!capture} runs a known-bad schedule (an {!Explore.violation}'s)
      through {!Explore.replay} and freezes the end state into a
      bundle;
    - {!bundle} freezes any finished {!Explore.execute} run — the path
      [chorus check] takes, where the engine's own flight recorder
      holds the decision prefix;
    - {!replay} re-executes a bundle's recorded schedule through
      {!Explore.replay}, and {!reproduces} compares the outcome
      against the bundle.

    Replay determinism rests on the engine's guarantee that the
    decision log captures {e every} multi-ready dispatch: a forced
    replay of those decisions reproduces the original schedule
    exactly, whatever tie-break policy or scheduler produced it. *)

val injections : (string * bool ref) list
(** Named fault-injection flags a bundle can record and a replay can
    re-arm: ["evict-claim-late"] and ["skip-insert-probe"], aliasing
    {!Explore.For_testing}. *)

val set_injections : string list -> unit
(** Arm the named flags (clearing the rest).
    @raise Invalid_argument on an unknown name. *)

val clear_injections : unit -> unit

val with_injections : string list -> (unit -> 'a) -> 'a
(** Arm the named flags around a thunk, restoring the previous
    arming on the way out (including on exceptions). *)

val capture :
  ?inject:string list ->
  ?max_steps:int ->
  Explore.scenario ->
  int list ->
  Obs.Bundle.t * Explore.outcome
(** [capture scenario schedule] re-runs [schedule] through
    {!Explore.replay} and bundles whatever state the run ends in —
    normally the violation the schedule was known to produce.
    [inject] names {!injections} flags to arm for the run (armed and
    restored around it) and is recorded in the bundle. *)

val bundle :
  scenario:string ->
  inject:string list ->
  Hw.Engine.t ->
  Core.Types.pvm list ->
  Explore.outcome ->
  Obs.Bundle.t
(** Freeze a finished run: its failure kind, detail and sanitizer rule
    ids from the outcome, full state, digests and metrics of [pvms],
    the schedule and ring tail from the engine's flight recorder, and
    the watchdog's blocked-fibre report. *)

val replay :
  ?max_steps:int -> Explore.scenario -> Obs.Bundle.t -> Explore.outcome
(** Re-execute the bundle's recorded schedule through
    {!Explore.replay} (arming its recorded injections for the
    duration) and report how the run ends. *)

val reproduces : Obs.Bundle.t -> Explore.outcome -> (unit, string) result
(** Does a replay outcome match what the bundle recorded?  Checks
    failure kind, per-PVM digests and sanitizer rule ids; [Error]
    carries a human-readable mismatch description. *)
