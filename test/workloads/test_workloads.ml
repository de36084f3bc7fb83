(* The named-scenario table: every entry resolves by its name and runs
   clean under the per-event structural sweep, as `chorus check
   --every-event` would run it. *)

module Scenarios = Workloads.Scenarios

let test_names_resolve () =
  let names = List.map (fun s -> s.Check.Explore.name) Scenarios.all in
  Alcotest.(check (list string))
    "table"
    [ "fig3"; "fork"; "dsm"; "ipc"; "contend"; "storm"; "pressure";
      "contend-model" ]
    names;
  List.iter
    (fun s ->
      match Scenarios.find s.Check.Explore.name with
      | Some s' when s' == s -> ()
      | _ -> Alcotest.failf "%s does not resolve to itself" s.name)
    Scenarios.all;
  Alcotest.(check bool) "unknown name" true (Scenarios.find "nosuch" = None)

let runs_clean scen () =
  let engine = Hw.Engine.create () in
  let outcome, pvms =
    Check.Explore.execute ~every_event:true ~max_steps:max_int engine scen
  in
  Alcotest.(check string)
    (scen.Check.Explore.name ^ " ends done: " ^ outcome.Check.Explore.o_detail)
    "done" outcome.o_kind;
  Alcotest.(check (list string)) "no sanitizer rule fired" [] outcome.o_rules;
  Alcotest.(check bool) "registered a PVM" true (pvms <> [])

let () =
  Alcotest.run "workloads"
    [
      ( "scenarios",
        Alcotest.test_case "names resolve" `Quick test_names_resolve
        :: List.map
             (fun s ->
               Alcotest.test_case
                 (s.Check.Explore.name ^ " runs clean")
                 `Quick (runs_clean s))
             Scenarios.all );
    ]
