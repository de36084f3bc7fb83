(* Reproduction regression: the paper's Table 6 and Table 7 cells must
   come out of the simulation within tolerance of the published
   values, for both the PVM and the Mach baseline — so `dune runtest`
   guards the headline result, not just the plumbing.

   Tolerances are deliberately loose (15% except the documented
   Table 7 "0 copied / 256 Kb" cell; EXPERIMENTS.md discusses it):
   this is a shape check, not a calibration assertion. *)

module Paper = Workloads.Paper

let kb n = n * 1024

let sim_ms f =
  let engine = Hw.Engine.create () in
  Hw.Engine.run_fn engine (fun () ->
      let t0 = Hw.Engine.now engine in
      f engine;
      float_of_int (Hw.Engine.now engine - t0) /. 1e6)

let check_close name ~paper ~tolerance measured =
  let dev = Float.abs (measured -. paper) /. paper in
  if dev > tolerance then
    Alcotest.failf "%s: measured %.2f ms vs paper %.2f ms (%.0f%% off)" name
      measured paper (dev *. 100.)

(* read-only whole-state sweeps of a Chorus machine: charge nothing, so
   they do not perturb the measured cell *)
let sweep ~label = function
  | Paper.Pvm { pvm; _ } -> Check.Sanitizer.assert_ok ~label pvm
  | Paper.Shadow _ -> ()

(* One Table 6 cell: region of [size], touch [pages], destroy. *)
let zero_fill impl ~size ~pages =
  sim_ms (fun engine ->
      let m = Paper.zero_fill_machine impl engine in
      let teardown = Paper.zero_fill m ~size ~pages in
      sweep ~label:"table6 populated" m;
      teardown ();
      sweep ~label:"table6 torn down" m)

let paper_cell table impl ~size ~pages =
  Option.get (Paper.published (table impl) ~size ~pages)

let test_table6 () =
  List.iter
    (fun (impl, cells) ->
      List.iter
        (fun (size, pages) ->
          check_close
            (Printf.sprintf "Table6 %s %dKb/%dpg"
               (String.capitalize_ascii (Paper.impl_name impl))
               (size / 1024) pages)
            ~paper:(paper_cell Paper.table6 impl ~size ~pages)
            ~tolerance:0.15
            (zero_fill impl ~size ~pages))
        cells)
    [
      (Paper.Chorus, [ (kb 8, 0); (kb 8, 1); (kb 256, 32); (kb 1024, 128) ]);
      (Paper.Mach, [ (kb 8, 0); (kb 8, 1); (kb 1024, 128) ]);
    ]

(* One Table 7 cell: source allocated outside the measurement; copy it,
   write [pages] source pages, destroy the copy. *)
let cow_pvm ~size ~pages =
  let engine = Hw.Engine.create () in
  Hw.Engine.run_fn engine (fun () ->
      let m = Paper.cow_machine Paper.Chorus engine in
      let src = Paper.cow_source m ~size in
      let t0 = Hw.Engine.now engine in
      let teardown = src.Paper.cow ~pages in
      sweep ~label:"table7 diverged" m;
      teardown ();
      sweep ~label:"table7 torn down" m;
      float_of_int (Hw.Engine.now engine - t0) /. 1e6)

let test_table7 () =
  List.iter
    (fun (size, pages, tolerance) ->
      check_close
        (Printf.sprintf "Table7 Chorus %dKb/%dpg" (size / 1024) pages)
        ~paper:(paper_cell Paper.table7 Paper.Chorus ~size ~pages)
        ~tolerance
        (cow_pvm ~size ~pages))
    [
      (kb 8, 0, 0.15);
      (kb 8, 1, 0.15);
      (kb 256, 0, 0.40) (* documented deviation, see EXPERIMENTS.md *);
      (kb 256, 32, 0.15);
      (kb 1024, 128, 0.15);
    ]

(* §5.3.2 derived quantities, from the paper's formulas over the swept
   cycles. *)
let test_derived_overheads () =
  let measured =
    Paper.overheads ~zero_fill:(zero_fill Paper.Chorus) ~cow:cow_pvm
  in
  List.iter
    (fun (label, name) ->
      check_close label
        ~paper:(Paper.derived Paper.Chorus name)
        ~tolerance:0.1 (List.assoc name measured))
    [
      ("on-demand allocation structure", "demand-alloc");
      ("COW resolution structure", "cow");
    ]

(* The committed reference report pins every cell and every derived
   overhead: the measured matrices match its measured_ms at the three
   decimals it records, the published matrices its paper_ms, and the
   §5.3.2 formulas over the measured cells its "derived" entries at
   four decimals. *)
let test_reference_report () =
  let ms3 = Printf.sprintf "%.3f %.3f" in
  let cell_ms cell impl ~size ~pages =
    let engine = Hw.Engine.create () in
    Hw.Engine.run_fn engine (fun () -> cell impl engine ~size ~pages)
  in
  let measured (table, cell, impl) =
    List.concat_map
      (fun size ->
        List.filter_map
          (fun pages ->
            Option.map
              (fun paper -> ms3 (cell_ms cell impl ~size ~pages) paper)
              (Paper.published (table impl) ~size ~pages))
          Paper.col_pages)
      Paper.region_sizes
  in
  let derived impl =
    List.map
      (fun (name, ms) ->
        Printf.sprintf "%s %s %.4f %.4f" (Paper.impl_name impl) name ms
          (Paper.derived impl name))
      (Paper.overheads
         ~zero_fill:(cell_ms Paper.table6_cell impl)
         ~cow:(cell_ms Paper.table7_cell impl))
  in
  let open Obs.Json in
  let list f j = Option.get (get_list (member f j)) in
  let num f j = Option.get (get_num (member f j)) in
  let str f j = Option.get (get_str (member f j)) in
  let report =
    parse (In_channel.with_open_bin "../../BENCH_pr4.json" In_channel.input_all)
  in
  Alcotest.(check (list string))
    "Table 6/7 cells: measured and paper ms"
    (List.concat_map
       (fun t ->
         List.map (fun c -> ms3 (num "measured_ms" c) (num "paper_ms" c))
           (list "cells" t))
       (list "tables" report))
    (List.concat_map measured
       [
         (Paper.table6, Paper.table6_cell, Paper.Chorus);
         (Paper.table6, Paper.table6_cell, Paper.Mach);
         (Paper.table7, Paper.table7_cell, Paper.Chorus);
         (Paper.table7, Paper.table7_cell, Paper.Mach);
       ]);
  Alcotest.(check (list string))
    "§5.3.2 derived: measured and paper ms"
    (List.map
       (fun d ->
         Printf.sprintf "%s %s %.4f %.4f" (str "impl" d) (str "name" d)
           (num "measured_ms" d) (num "paper_ms" d))
       (list "derived" report))
    (derived Paper.Chorus @ derived Paper.Mach)

(* Structural claims: region creation is size-independent (paper:
   "only 10%" between 1 and 128 pages of span). *)
let test_region_create_size_independent () =
  let small = zero_fill Paper.Chorus ~size:(kb 8) ~pages:0 in
  let large = zero_fill Paper.Chorus ~size:(kb 1024) ~pages:0 in
  Alcotest.(check bool)
    (Printf.sprintf "create/destroy roughly size-independent (%.2f vs %.2f)"
       small large)
    true
    (large /. small < 1.25)

let () =
  Alcotest.run "repro"
    [
      ( "paper",
        [
          Alcotest.test_case "Table 6 cells" `Quick test_table6;
          Alcotest.test_case "Table 7 cells" `Quick test_table7;
          Alcotest.test_case "derived overheads (§5.3.2)" `Quick
            test_derived_overheads;
          Alcotest.test_case "region create size-independent" `Quick
            test_region_create_size_independent;
          Alcotest.test_case "cells match BENCH_pr4.json" `Quick
            test_reference_report;
        ] );
    ]
