(** The paper's evaluation workloads (§5.3), defined once, with the
    published Sun-3/60 numbers (ms) they are judged against.

    Every workload runs on the Chorus PVM or on the Mach-style shadow
    baseline, under the calibrated cost profile.  A cycle's populate
    step returns its teardown step, so a caller can sweep the
    populated state first.  Callers create and configure the engine;
    every function here runs inside it. *)

type impl = Chorus | Mach

val impl_name : impl -> string
(** ["chorus"] or ["mach"]. *)

val region_sizes : int list
(** Table 6/7 rows, in bytes: 8 Kb, 256 Kb, 1024 Kb. *)

val col_pages : int list
(** Table 6/7 columns, in pages touched: 0, 1, 32, 128. *)

val table6 : impl -> float option array array
(** Table 6 (zero-filled allocation), [row].[col]; [None] where the
    column touches more than the region holds. *)

val table7 : impl -> float option array array
(** Table 7 (copy-on-write), same shape. *)

val published :
  float option array array -> size:int -> pages:int -> float option

val bcopy_ms : float
val bzero_ms : float
(** §5.3 preliminaries: bcopy and bzero of one 8 Kb page. *)

val derived : impl -> string -> float
(** A §5.3.2 overhead: ["demand-alloc"], ["protect"], ["tree-setup"]
    or ["cow"].  The Mach values are the paper's formulas applied to
    its Mach Table 6/7 cells. *)

val overheads :
  zero_fill:(size:int -> pages:int -> float) ->
  cow:(size:int -> pages:int -> float) ->
  (string * float) list
(** The paper's §5.3.2 formulas over measured Table 6 ([zero_fill])
    and Table 7 ([cow]) cells in ms, giving ["demand-alloc"],
    ["protect"], ["tree-setup"] and ["cow"] in that order. *)

type machine =
  | Pvm of { pvm : Core.Types.pvm; ctx : Core.Types.context }
  | Shadow of { vm : Shadow.Shadow_vm.t; sp : Shadow.Shadow_vm.space }

val zero_fill_machine : impl -> Hw.Engine.t -> machine
(** What the Table 6 cells run on. *)

val cow_machine : impl -> Hw.Engine.t -> machine
(** What the Table 7 cells and the decomposition run on. *)

val metrics : machine -> Obs.Metrics.t

val zero_fill : machine -> size:int -> pages:int -> unit -> unit
(** Table 6 cycle: create a [size] region over a fresh zero-fill
    memory object and write [pages] pages of it; the teardown
    destroys both. *)

type source = {
  cow : pages:int -> unit -> unit;
      (** Table 7 cycle: copy the source (deferred), map the copy and
          write [pages] source pages to force real copies; the
          teardown destroys the copy. *)
  destroy : unit -> unit;
}

val cow_source : machine -> size:int -> source
(** Table 7 set-up: a [size] source region, every page written. *)

val table6_cell : impl -> Hw.Engine.t -> size:int -> pages:int -> float
(** A measured Table 6 cell: mean simulated ms of ten cycles on one
    machine. *)

val table7_cell : impl -> Hw.Engine.t -> size:int -> pages:int -> float
(** A measured Table 7 cell: mean of ten cycles over one source. *)

val decomp_size : int
val decomp_pages : int

val decomp : impl -> Hw.Engine.t -> machine
(** The §5.3.2 decomposition cycle, everything torn down: a
    [decomp_size] (1024 Kb) / [decomp_pages] (128) zero-fill cycle,
    then a source of that size, one COW cycle over it and the
    source's teardown, all on one {!cow_machine}. *)
