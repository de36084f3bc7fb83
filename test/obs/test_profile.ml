(* Golden tests for the cost-attribution profiler: the §5.3.2 overhead
   decomposition *derived from measured charges* must land within 5%
   of the paper's published numbers, for the Chorus PVM and for the
   Mach-style shadow baseline alike; attribution totals must agree
   with the Table 6 cells; and the export surfaces (folded stacks,
   JSON, dropped-event accounting) must stay coherent. *)

module Paper = Workloads.Paper

let size = Paper.decomp_size (* the 1024 Kb / 128-page cells *)
let pages = Paper.decomp_pages

let run_traced f =
  let tr = Obs.Trace.create () in
  let engine = Hw.Engine.create () in
  Hw.Engine.set_tracer engine tr;
  Obs.Trace.enable tr;
  Hw.Engine.run_fn engine (fun () -> f engine);
  (Hw.Engine.now engine, Obs.Profile.of_trace tr)

(* One Table-6 zero-fill cycle, and the whole decomposition cycle. *)
let zero_fill impl engine =
  Paper.zero_fill (Paper.zero_fill_machine impl engine) ~size ~pages ()

let decomp impl engine = ignore (Paper.decomp impl engine)

let check_pct ~msg ~paper_ms measured_ns =
  match measured_ns with
  | None -> Alcotest.failf "%s: not exercised by the workload" msg
  | Some ns ->
    let ms = ns /. 1e6 in
    let dev = Float.abs ((ms -. paper_ms) /. paper_ms) *. 100. in
    if dev > 5.0 then
      Alcotest.failf "%s: derived %.4f ms vs paper %.4f ms (%.1f%% > 5%%)" msg
        ms paper_ms dev

(* ------------------------------------------------------------------ *)
(* The §5.3.2 decomposition, derived from charges, vs the paper. *)

(* The Mach paper values are recomputed from its Table 6/7 cells by
   the paper's own formulas (see Workloads.Paper.derived). *)
let test_derived impl ~tree () =
  let _, prof = run_traced (decomp impl) in
  let d = Obs.Profile.derive prof in
  Alcotest.(check int)
    "zero-fill faults" (2 * pages) d.Obs.Profile.zero_fill_faults;
  Alcotest.(check int) "COW faults" pages d.cow_faults;
  Alcotest.(check int) "copies" 1 d.copies;
  let check msg name = check_pct ~msg ~paper_ms:(Paper.derived impl name) in
  check "demand-alloc" "demand-alloc" d.demand_ns;
  check "cow" "cow" d.cow_ns;
  check tree "tree-setup" d.tree_setup_ns;
  check "protect" "protect" d.protect_ns

(* ------------------------------------------------------------------ *)
(* Attribution totals: in these device-free workloads every advance of
   the simulated clock is a primitive charge, so the profiler's total
   must equal elapsed sim time exactly — and the elapsed time is the
   Table 6 (1024 Kb, 128 pg) cell, within 5% of the paper. *)

let test_attribution_total impl ~label () =
  let elapsed, prof = run_traced (zero_fill impl) in
  Alcotest.(check int)
    "every simulated ns attributed" elapsed prof.Obs.Profile.total_charge_ns;
  let ms = float_of_int elapsed /. 1e6 in
  let paper = Option.get (Paper.published (Paper.table6 impl) ~size ~pages) in
  if Float.abs ((ms -. paper) /. paper) > 0.05 then
    Alcotest.failf "Table 6 %s drifted: %.2f ms vs paper %g" label ms paper

(* ------------------------------------------------------------------ *)
(* Export surfaces. *)

let test_folded_output () =
  let _, prof = run_traced (decomp Paper.Chorus) in
  let folded = Obs.Profile.to_folded prof in
  let lines =
    String.split_on_char '\n' folded |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check bool) "has stacks" true (List.length lines > 0);
  let total = ref 0 in
  List.iter
    (fun line ->
      match String.rindex_opt line ' ' with
      | None -> Alcotest.failf "malformed folded line: %s" line
      | Some i -> (
        let path = String.sub line 0 i in
        let ns = String.sub line (i + 1) (String.length line - i - 1) in
        Alcotest.(check bool) "nonempty path" true (String.length path > 0);
        match int_of_string_opt ns with
        | Some n -> total := !total + n
        | None -> Alcotest.failf "bad sample count in: %s" line))
    lines;
  Alcotest.(check int)
    "folded stacks conserve total attribution" prof.Obs.Profile.total_charge_ns
    !total;
  let has_zero_fill =
    List.exists
      (fun l ->
        String.length l >= 15 && String.sub l 0 15 = "fault:zero-fill")
      lines
  in
  Alcotest.(check bool) "zero-fill stacks present" true has_zero_fill

let test_dropped_surfaces () =
  let tr = Obs.Trace.create ~capacity:16 () in
  let engine = Hw.Engine.create () in
  Hw.Engine.set_tracer engine tr;
  Obs.Trace.enable tr;
  Hw.Engine.run_fn engine (fun () -> zero_fill Paper.Chorus engine);
  Alcotest.(check bool) "ring overflowed" true (Obs.Trace.dropped tr > 0);
  let prof = Obs.Profile.of_trace tr in
  Alcotest.(check int)
    "profile surfaces the dropped count" (Obs.Trace.dropped tr)
    prof.Obs.Profile.n_dropped;
  let report = Format.asprintf "%a" Obs.Profile.pp prof in
  let contains ~sub s =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "text report warns" true (contains ~sub:"WARNING" report);
  (* the Chrome export carries it as metadata, parseable JSON *)
  let chrome = Obs.Json.parse (Obs.Trace.to_chrome_json tr) in
  match
    Obs.Json.(get_num (member "droppedEvents"
                         (Option.value ~default:Obs.Json.Null
                            (member "otherData" chrome))))
  with
  | Some n ->
    Alcotest.(check int)
      "droppedEvents metadata" (Obs.Trace.dropped tr) (int_of_float n)
  | None -> Alcotest.fail "no otherData.droppedEvents in Chrome export"

let test_json_roundtrip () =
  let _, prof = run_traced (decomp Paper.Chorus) in
  let j = Obs.Profile.to_json prof in
  let reparsed = Obs.Json.parse (Obs.Json.to_string j) in
  Alcotest.(check string)
    "print/parse/print fixpoint"
    (Obs.Json.to_string j)
    (Obs.Json.to_string reparsed);
  Alcotest.(check (option string))
    "schema tag" (Some "chorus-profile/1")
    Obs.Json.(get_str (member "schema" reparsed));
  match Obs.Json.(get_num (member "total_charge_ns" reparsed)) with
  | Some total ->
    Alcotest.(check int)
      "totals survive the roundtrip" prof.Obs.Profile.total_charge_ns
      (int_of_float total)
  | None -> Alcotest.fail "no total_charge_ns field"

let () =
  Alcotest.run "profile"
    [
      ( "derived",
        [
          Alcotest.test_case "chorus within 5% of paper" `Quick
            (test_derived Paper.Chorus ~tree:"tree-setup");
          Alcotest.test_case "mach within 5% of paper" `Quick
            (test_derived Paper.Mach ~tree:"shadow setup");
        ] );
      ( "attribution",
        [
          Alcotest.test_case "chorus total = sim time = Table 6 cell" `Quick
            (test_attribution_total Paper.Chorus ~label:"cell");
          Alcotest.test_case "mach total = sim time = Table 6 cell" `Quick
            (test_attribution_total Paper.Mach ~label:"Mach cell");
        ] );
      ( "export",
        [
          Alcotest.test_case "folded stacks conserve charges" `Quick
            test_folded_output;
          Alcotest.test_case "dropped events surface everywhere" `Quick
            test_dropped_surfaces;
          Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
        ] );
    ]
