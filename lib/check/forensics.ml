(* Crash forensics: bundle assembly and deterministic re-drive, both
   over Explore.replay, the one forced replay. *)

(* --- Fault injection --------------------------------------------- *)

let injections =
  [
    ("evict-claim-late", Explore.For_testing.evict_claim_late);
    ("skip-insert-probe", Explore.For_testing.skip_insert_probe);
  ]

let clear_injections () = List.iter (fun (_, flag) -> flag := false) injections

let set_injections names =
  clear_injections ();
  List.iter
    (fun name ->
      match List.assoc_opt name injections with
      | Some flag -> flag := true
      | None ->
        invalid_arg
          (Printf.sprintf "Forensics: unknown injection %S (know: %s)" name
             (String.concat ", " (List.map fst injections))))
    names

let with_injections names f =
  let saved = List.map (fun (_, flag) -> !flag) injections in
  set_injections names;
  Fun.protect
    ~finally:(fun () ->
      List.iter2 (fun (_, flag) v -> flag := v) injections saved)
    f

(* --- Bundle assembly ---------------------------------------------- *)

let metrics_json pvm = Obs.Metrics.to_json (Core.Pvm.metrics pvm)

let watchdog_json engine =
  let fields = [ ("blocked", Obs.Json.Str (Hw.Engine.blocked_report engine)) ] in
  let fields =
    match Hw.Engine.watchdog_metrics engine with
    | Some m -> fields @ [ ("metrics", Obs.Metrics.to_json m) ]
    | None -> fields
  in
  Obs.Json.Obj fields

let violations_json rules =
  match rules with
  | [] -> Obs.Json.Null
  | rules -> Obs.Json.List (List.map (fun r -> Obs.Json.Str r) rules)

let bundle ~scenario ~inject engine pvms (o : Explore.outcome) =
  let flight = Hw.Engine.flight engine in
  Obs.Bundle.v ~scenario ~inject ~kind:o.o_kind ~detail:o.o_detail
    ~sim_now:(Hw.Engine.now engine)
    ~schedule:(Obs.Flight.decisions flight)
    ~flight:(Obs.Flight.to_json flight)
    ~state:(List.map Core.Inspect.state_json pvms)
    ~digests:o.o_digests
    ~violations:(violations_json o.o_rules)
    ~metrics:(List.map metrics_json pvms)
    ~watchdog:(watchdog_json engine) ()

let capture ?(inject = []) ?max_steps (scenario : Explore.scenario) schedule =
  with_injections inject (fun () ->
      let outcome, engine, pvms = Explore.replay ?max_steps scenario schedule in
      (bundle ~scenario:scenario.name ~inject engine pvms outcome, outcome))

(* --- Replay ------------------------------------------------------- *)

let replay ?max_steps scenario (b : Obs.Bundle.t) =
  with_injections b.inject (fun () ->
      let outcome, _, _ = Explore.replay ?max_steps scenario b.schedule in
      outcome)

let reproduces (bundle : Obs.Bundle.t) (outcome : Explore.outcome) =
  let b = bundle in
  let problems = ref [] in
  let push p = problems := p :: !problems in
  if outcome.o_kind <> b.Obs.Bundle.kind then
    push
      (Printf.sprintf "failure kind: bundle %S, replay %S" b.Obs.Bundle.kind
         outcome.o_kind);
  if
    b.Obs.Bundle.digests <> []
    && not (List.equal String.equal outcome.o_digests b.Obs.Bundle.digests)
  then
    push
      (Printf.sprintf "state digests: bundle [%s], replay [%s]"
         (String.concat "; " b.Obs.Bundle.digests)
         (String.concat "; " outcome.o_digests));
  let bundle_rules =
    match b.Obs.Bundle.violations with
    | Obs.Json.List l ->
      List.filter_map (function Obs.Json.Str s -> Some s | _ -> None) l
    | _ -> []
  in
  if
    b.Obs.Bundle.kind = "invariant"
    && not (List.equal String.equal outcome.o_rules bundle_rules)
  then
    push
      (Printf.sprintf "sanitizer rules: bundle [%s], replay [%s]"
         (String.concat "; " bundle_rules)
         (String.concat "; " outcome.o_rules));
  match !problems with
  | [] -> Ok ()
  | ps -> Error (String.concat "\n" (List.rev ps))
