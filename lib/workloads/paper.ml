(* The paper's evaluation workloads (§5.3): Table 6 zero-filled
   allocation, Table 7 copy-on-write and the §5.3.2 decomposition, on
   the Chorus PVM and on the Mach-style shadow baseline, with the
   Sun-3/60 numbers the paper published for them. *)

type impl = Chorus | Mach

let impl_name = function Chorus -> "chorus" | Mach -> "mach"
let ps = 8192
let kb n = n * 1024

(* --- Published numbers -------------------------------------------- *)

let region_sizes = [ kb 8; kb 256; kb 1024 ]
let col_pages = [ 0; 1; 32; 128 ]

let table6 = function
  | Chorus ->
    [| [| Some 0.350; Some 1.50; None; None |];
       [| Some 0.352; Some 1.60; Some 36.6; None |];
       [| Some 0.390; Some 1.63; Some 37.7; Some 145.9 |] |]
  | Mach ->
    [| [| Some 1.57; Some 3.12; None; None |];
       [| Some 1.81; Some 3.19; Some 46.8; None |];
       [| Some 1.89; Some 3.26; Some 47.0; Some 180.8 |] |]

let table7 = function
  | Chorus ->
    [| [| Some 0.4; Some 2.10; None; None |];
       [| Some 0.7; Some 2.47; Some 55.7; None |];
       [| Some 2.4; Some 4.2; Some 57.2; Some 221.9 |] |]
  | Mach ->
    [| [| Some 2.7; Some 4.82; None; None |];
       [| Some 2.9; Some 5.12; Some 66.4; None |];
       [| Some 3.08; Some 5.18; Some 67.0; Some 256.41 |] |]

let published matrix ~size ~pages =
  let index x l = Option.get (List.find_index (( = ) x) l) in
  matrix.(index size region_sizes).(index pages col_pages)

let bcopy_ms = 1.40
let bzero_ms = 0.87

let derived impl name =
  List.assoc name
    (match impl with
    | Chorus ->
      [ ("demand-alloc", 0.270); ("protect", 0.016); ("tree-setup", 0.030);
        ("cow", 0.310) ]
    | Mach ->
      [ ("demand-alloc", 0.5277); ("protect", 0.0030); ("tree-setup", 1.130);
        ("cow", 0.5792) ])

(* --- Machines ----------------------------------------------------- *)

type machine =
  | Pvm of { pvm : Core.Types.pvm; ctx : Core.Types.context }
  | Shadow of { vm : Shadow.Shadow_vm.t; sp : Shadow.Shadow_vm.space }

let machine impl engine ~frames =
  match impl with
  | Chorus ->
    let pvm = Core.Pvm.create ~frames ~engine () in
    Pvm { pvm; ctx = Core.Context.create pvm }
  | Mach ->
    let vm = Shadow.Shadow_vm.create ~frames ~engine () in
    Shadow { vm; sp = Shadow.Shadow_vm.space_create vm }

let zero_fill_machine impl engine = machine impl engine ~frames:600

(* The shadow baseline keeps the source's pages and their copies in
   separate objects, so its COW runs need more frames. *)
let cow_machine impl engine =
  machine impl engine ~frames:(match impl with Chorus -> 600 | Mach -> 900)

let metrics = function
  | Pvm { pvm; _ } -> Core.Pvm.metrics pvm
  | Shadow { vm; _ } -> Shadow.Shadow_vm.metrics vm

let touch m ~pages =
  for p = 0 to pages - 1 do
    match m with
    | Pvm { pvm; ctx } -> Core.Pvm.touch pvm ctx ~addr:(p * ps) ~access:`Write
    | Shadow { vm; sp } ->
      Shadow.Shadow_vm.touch vm sp ~addr:(p * ps) ~access:`Write
  done

(* --- Cycles ------------------------------------------------------- *)

let zero_fill m ~size ~pages =
  match m with
  | Pvm { pvm; ctx } ->
    let cache = Core.Cache.create pvm () in
    let region =
      Core.Region.create pvm ctx ~addr:0 ~size ~prot:Hw.Prot.read_write cache
        ~offset:0
    in
    touch m ~pages;
    fun () ->
      Core.Region.destroy pvm region;
      Core.Cache.destroy pvm cache
  | Shadow { vm; sp } ->
    let entry =
      Shadow.Shadow_vm.allocate vm sp ~addr:0 ~size ~prot:Hw.Prot.read_write
    in
    touch m ~pages;
    fun () -> Shadow.Shadow_vm.entry_destroy vm entry

type source = { cow : pages:int -> unit -> unit; destroy : unit -> unit }

(* The copy lives far above the source, in the same address space; the
   touches write the source's first pages. *)
let copy_base = 0x4000_0000

let cow_source m ~size =
  match m with
  | Pvm { pvm; ctx } ->
    let src = Core.Cache.create pvm () in
    let src_region =
      Core.Region.create pvm ctx ~addr:0 ~size ~prot:Hw.Prot.read_write src
        ~offset:0
    in
    touch m ~pages:(size / ps);
    let cow ~pages =
      let copy = Core.Cache.create pvm () in
      Core.Cache.copy pvm ~strategy:`History ~src ~src_off:0 ~dst:copy
        ~dst_off:0 ~size ();
      let region =
        Core.Region.create pvm ctx ~addr:copy_base ~size
          ~prot:Hw.Prot.read_write copy ~offset:0
      in
      touch m ~pages;
      fun () ->
        Core.Region.destroy pvm region;
        Core.Cache.destroy pvm copy
    in
    let destroy () =
      Core.Region.destroy pvm src_region;
      Core.Cache.destroy pvm src
    in
    { cow; destroy }
  | Shadow { vm; sp } ->
    let src =
      Shadow.Shadow_vm.allocate vm sp ~addr:0 ~size ~prot:Hw.Prot.read_write
    in
    touch m ~pages:(size / ps);
    let cow ~pages =
      let copy =
        Shadow.Shadow_vm.copy_entry vm src ~dst_space:sp ~dst_addr:copy_base
      in
      touch m ~pages;
      fun () -> Shadow.Shadow_vm.entry_destroy vm copy
    in
    { cow; destroy = (fun () -> Shadow.Shadow_vm.entry_destroy vm src) }


(* --- Measured cells ----------------------------------------------- *)

let iterations = 10

let mean_ms engine cycle =
  let samples =
    List.init iterations (fun _ ->
        let t0 = Hw.Engine.now engine in
        cycle ();
        float_of_int (Hw.Engine.now engine - t0))
  in
  let mean = List.fold_left ( +. ) 0. samples /. float_of_int iterations in
  float_of_int (int_of_float mean) /. 1e6

let table6_cell impl engine ~size ~pages =
  let m = zero_fill_machine impl engine in
  mean_ms engine (fun () -> zero_fill m ~size ~pages ())

let table7_cell impl engine ~size ~pages =
  let src = cow_source (cow_machine impl engine) ~size in
  mean_ms engine (fun () -> src.cow ~pages ())

(* --- §5.3.2 decomposition ----------------------------------------- *)

let decomp_size = kb 1024
let decomp_pages = 128

let decomp impl engine =
  let m = cow_machine impl engine in
  zero_fill m ~size:decomp_size ~pages:decomp_pages ();
  let src = cow_source m ~size:decomp_size in
  src.cow ~pages:decomp_pages ();
  src.destroy ();
  m

(* --- §5.3.2 derived overheads -------------------------------------- *)

let overheads ~zero_fill:z ~cow:c =
  (* simple on-demand page allocation: (t(128 pages) - t(0)) / 128 - bzero *)
  let demand =
    ((z ~size:(kb 1024) ~pages:128 -. z ~size:(kb 1024) ~pages:0) /. 128.)
    -. bzero_ms
  in
  (* per-page protection at deferred-copy time *)
  let protect =
    (c ~size:(kb 1024) ~pages:0 -. c ~size:(kb 8) ~pages:0) /. 127.
  in
  (* history tree (shadow object) setup *)
  let tree = c ~size:(kb 8) ~pages:0 -. z ~size:(kb 8) ~pages:0 -. protect in
  (* COW resolution overhead *)
  let cow =
    ((c ~size:(kb 1024) ~pages:128 -. c ~size:(kb 1024) ~pages:0) /. 128.)
    -. bcopy_ms
  in
  [ ("demand-alloc", demand); ("protect", protect); ("tree-setup", tree);
    ("cow", cow) ]
