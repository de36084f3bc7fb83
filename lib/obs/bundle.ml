(* Crash-bundle container and JSON round-trip.  See DESIGN.md §4e for
   the schema; Check.Forensics assembles bundles from live state. *)

type t = {
  schema : string;
  scenario : string;
  inject : string list;
  kind : string;
  detail : string;
  sim_now : int;
  schedule : int list;
  flight : Json.t;
  state : Json.t list;
  digests : string list;
  violations : Json.t;
  metrics : Json.t list;
  watchdog : Json.t;
}

let schema_version = "chorus-bundle/1"

let v ~scenario ?(inject = []) ~kind ~detail ~sim_now ~schedule
    ?(flight = Json.Null) ?(state = []) ?(digests = [])
    ?(violations = Json.Null) ?(metrics = []) ?(watchdog = Json.Null) () =
  {
    schema = schema_version;
    scenario;
    inject;
    kind;
    detail;
    sim_now;
    schedule;
    flight;
    state;
    digests;
    violations;
    metrics;
    watchdog;
  }

let num i = Json.Num (float_of_int i)

let to_json b : Json.t =
  Json.Obj
    [
      ("schema", Json.Str b.schema);
      ("scenario", Json.Str b.scenario);
      ("inject", Json.List (List.map (fun s -> Json.Str s) b.inject));
      ( "failure",
        Json.Obj [ ("kind", Json.Str b.kind); ("detail", Json.Str b.detail) ]
      );
      ("sim_now", num b.sim_now);
      ("schedule", Json.List (List.map num b.schedule));
      ("flight", b.flight);
      ("state", Json.List b.state);
      ("digests", Json.List (List.map (fun d -> Json.Str d) b.digests));
      ("violations", b.violations);
      ("metrics", Json.List b.metrics);
      ("watchdog", b.watchdog);
    ]

(* A list field: absent reads as empty; a non-list, or an entry [parse]
   rejects, is an error naming the field (and the first bad index). *)
let list_field j name ~what parse =
  match Json.member name j with
  | None -> Ok []
  | Some (Json.List l) -> (
    let parsed = List.map parse l in
    match List.find_index Option.is_none parsed with
    | Some i ->
      Error (Printf.sprintf "bundle field %S: entry %d is not %s" name i what)
    | None -> Ok (List.filter_map Fun.id parsed))
  | Some _ -> Error (Printf.sprintf "bundle field %S is not a list" name)

let string_entry = function Json.Str s -> Some s | _ -> None

let int_entry = function
  | Json.Num f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let of_json (j : Json.t) : (t, string) result =
  let ( let* ) = Result.bind in
  let str name = Json.get_str (Json.member name j) in
  let json_field name = Option.value ~default:Json.Null (Json.member name j) in
  let json_list name =
    Option.value ~default:[] (Json.get_list (Json.member name j))
  in
  let failure_str name =
    Option.bind (Json.member "failure" j) (fun f ->
        Json.get_str (Json.member name f))
  in
  match str "schema" with
  | None -> Error "not a bundle: no \"schema\" field"
  | Some s when s <> schema_version ->
    Error (Printf.sprintf "unknown bundle schema %S (expected %S)" s
             schema_version)
  | Some schema -> (
    match (str "scenario", failure_str "kind") with
    | None, _ -> Error "bundle missing \"scenario\""
    | _, None -> Error "bundle missing \"failure.kind\""
    | Some scenario, Some kind ->
      let* inject = list_field j "inject" ~what:"a string" string_entry in
      let* schedule = list_field j "schedule" ~what:"an integer" int_entry in
      let* digests = list_field j "digests" ~what:"a string" string_entry in
      Ok
        {
          schema;
          scenario;
          inject;
          kind;
          detail = Option.value ~default:"" (failure_str "detail");
          sim_now =
            (match Json.get_num (Json.member "sim_now" j) with
            | Some f -> int_of_float f
            | None -> 0);
          schedule;
          flight = json_field "flight";
          state = json_list "state";
          digests;
          violations = json_field "violations";
          metrics = json_list "metrics";
          watchdog = json_field "watchdog";
        })

let sanitize_component s =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> c
      | _ -> '_')
    s

let filename b =
  Printf.sprintf "bundle-%s-%s.json"
    (sanitize_component b.scenario)
    (sanitize_component b.kind)

let write ~dir b =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (filename b) in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string (to_json b));
      output_char oc '\n');
  path

let read path =
  if not (Sys.file_exists path) then
    Error (Printf.sprintf "no such bundle: %s" path)
  else
    let ic = open_in_bin path in
    let contents =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    match Json.parse contents with
    | exception Json.Parse_error msg ->
      Error (Printf.sprintf "%s: bad JSON: %s" path msg)
    | j -> of_json j
