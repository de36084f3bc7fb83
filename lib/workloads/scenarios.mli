(** The named scenarios, in one table: what every [chorus] subcommand
    runs, and what a crash bundle's recorded name resolves to.

    The whole-system workloads run under the calibrated Sun-3/60
    profile, call [register] with every PVM as soon as it exists (so a
    per-event sweep can watch it) and observe the concatenated
    {!Core.Inspect} digests. *)

val workloads : Check.Explore.scenario list
(** fig3, fork, dsm, ipc, contend and storm ({!Check.Crossval.storm}):
    what [chorus crossval] runs on both engines.  All but contend, whose
    racing writers legitimately interleave per schedule, are
    [Schedule_independent]; storm's workers carry affinities, so with
    [--domains] it genuinely exercises the pool. *)

val all : Check.Explore.scenario list
(** {!workloads}, then the {!Check.Model} programs pressure and
    contend-model. *)

val find : string -> Check.Explore.scenario option

(** {1 Bodies shared with the interactive commands} *)

val fig3_tree :
  Hw.Engine.t ->
  register:(Core.Types.pvm -> unit) ->
  Core.Types.pvm * Core.Types.context * Core.Types.cache
(** The paper's Figure 3: a source written, copied, written again and
    copied again.  Returns the source, whose history tree it draws. *)

val fork_shell :
  Hw.Engine.t ->
  register:(Core.Types.pvm -> unit) ->
  Nucleus.Site.t * Mix.Process.manager * Mix.Process.t
(** A MIX site running the ["sh"] image as init. *)

val fork_rounds : Mix.Process.manager -> Mix.Process.t -> int -> unit
(** [n] rounds of fork, parent write, child exit, parent wait. *)

type dsm_site = Core.Types.pvm * Core.Types.context

val dsm_sites :
  Hw.Engine.t ->
  register:(Core.Types.pvm -> unit) ->
  Dsm.Coherent.t * dsm_site * dsm_site
(** Two PVMs mapping one coherent segment. *)

val dsm_writes : dsm_site -> dsm_site -> int -> unit
(** [n] writes to the segment's first page, alternating sites. *)
