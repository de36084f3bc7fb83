(* Host-clock spans recorded from outside the layers.

   Every call the benchmark makes into a layer's public function can be
   wrapped in a span: name, start, end, parent span and op id (spans of
   one op share the id).  Nothing under lib/ is instrumented; spans sit
   in the benchmark's own call sites (Calls).  Tracing is off for the
   end-to-end measurement and on only in the separate traced run.

   Clocks.  On the sequential engine sixteen storm fibres interleave at
   every cost charge, so a worker's wall-clock interval around a call
   also covers its peers' slices.  There each fibre gets a virtual host
   clock instead: an engine event hook (public [Hw.Engine.set_event_hook])
   charges the host ns, minor words and completed faults of every engine
   event to the fibre that ran it, and a fibre reads its own clock as
   its accumulated share plus the time since the last event.  With a
   single driving fibre (tables, make) that clock equals the wall clock.
   On the parallel engine a fibre runs its slice alone on one domain, so
   the wall clock and the domain's minor-word counter are its own; fault
   kinds cannot be attributed there (other domains fault concurrently).

   Fault kinds.  A call during which exactly one fault completed in the
   calling fibre is also recorded under [core.fault.<kind>], the kind
   read from the change in the PVM's fault-latency histogram counts. *)

external now_ns : unit -> (int[@untagged])
  = "pb_now_ns_byte" "pb_now_ns"
[@@noalloc]

external cpu_ns : unit -> (int[@untagged]) = "pb_cpu_ns_byte" "pb_cpu_ns"
[@@noalloc]

let minor_words () = int_of_float (Gc.minor_words ())

(* --- span names ---------------------------------------------------- *)

let names = ref [||]

let name s =
  let id = Array.length !names in
  names := Array.append !names [| s |];
  id

let kinds = Core.Fault.hist_names (* "fault.hit", ... in hist_index order *)
let nkinds = Array.length kinds
let kind_ids = Array.map (fun k -> name ("core." ^ k)) kinds

(* --- state --------------------------------------------------------- *)

let on = ref false

(* Fields of one recorded span, [stride] ints per span. *)
let f_name = 0
and f_op = 1
and f_parent = 2 (* local index in the same fibre, or -1 for the root *)
and f_start = 3
and f_end = 4
and f_words = 5 (* minor words over the span, children included *)
and f_child_ns = 6
and f_child_words = 7
and f_side = 8 (* 1: a fault-kind record, not part of the call tree *)

let stride = 9
let max_depth = 64

type fibre = {
  mutable n : int;
  mutable a : int array;
  stack : int array;
  mutable depth : int;
  kscratch : int array; (* fault counts at each open span's entry *)
}

let max_fibres = 256

let fibres =
  Array.init max_fibres (fun _ ->
      {
        n = 0;
        a = [||];
        stack = Array.make max_depth 0;
        depth = 0;
        kscratch = Array.make (max_depth * nkinds) 0;
      })

let engine = ref None
let inside = ref false
let virtual_clock = ref false
let parallel = ref false

(* Per-fibre virtual meters, maintained by the event hook. *)
let v_ns = Array.make max_fibres 0
let v_words = Array.make max_fibres 0
let v_kinds = Array.make (max_fibres * nkinds) 0
let last_ns = ref 0
let last_words = ref 0
let last_kinds = Array.make nkinds 0
let hists : Obs.Metrics.histogram array ref = ref [||]

let kind_count k =
  let h = !hists in
  if Array.length h = 0 then 0 else (Obs.Metrics.histogram_stats h.(k)).count

let fibre_id () =
  if !inside then
    match !engine with Some e -> Hw.Engine.current_fibre e | None -> 0
  else 0

(* The tracer's own bookkeeping (span records, fault-count snapshots)
   is taken off every clock it runs on, per fibre, so spans and op
   timers read the same compensated clock. *)
let book_ns = Array.make max_fibres 0
let book_words = Array.make max_fibres 0

let raw_clock f =
  if !inside && !virtual_clock then v_ns.(f) + (now_ns () - !last_ns)
  else now_ns ()

let raw_words f =
  if !inside && !virtual_clock then v_words.(f) + (minor_words () - !last_words)
  else minor_words ()

let fault_count f k =
  if !inside && !virtual_clock then
    v_kinds.((f * nkinds) + k) + (kind_count k - last_kinds.(k))
  else kind_count k

(* Host ns the hook itself took during the current run: excluded from
   the root span as it is from every fibre's clock. *)
let hook_ns = ref 0

let hook () =
  match !engine with
  | None -> ()
  | Some e ->
    let t0 = now_ns () in
    let f = Hw.Engine.current_fibre e in
    v_ns.(f) <- v_ns.(f) + (t0 - !last_ns);
    v_words.(f) <- v_words.(f) + (minor_words () - !last_words);
    for k = 0 to nkinds - 1 do
      let c = kind_count k in
      v_kinds.((f * nkinds) + k) <- v_kinds.((f * nkinds) + k) + (c - last_kinds.(k));
      last_kinds.(k) <- c
    done;
    last_words := minor_words ();
    last_ns := now_ns ();
    hook_ns := !hook_ns + (!last_ns - t0)

(* Start attributing fault kinds against [pvm] (call right after
   creating it, before its first fault). *)
let watch pvm =
  if !on then begin
    hists := pvm.Core.Types.fault_hist;
    for k = 0 to nkinds - 1 do
      last_kinds.(k) <- kind_count k
    done
  end

(* --- recording ----------------------------------------------------- *)

let grow fb =
  if (fb.n + 2) * stride > Array.length fb.a then begin
    let a = Array.make (max (1024 * stride) (2 * Array.length fb.a)) 0 in
    Array.blit fb.a 0 a 0 (fb.n * stride);
    fb.a <- a
  end

(* Close a stretch of bookkeeping that began at raw [t]/[w].  On the
   parallel engine spans stay on the raw wall clock (their intervals
   are merged across domains); the bookkeeping then falls outside them
   because [enter] reads its clock last and [exit_] first. *)
let booked f t w =
  if not !parallel then begin
    book_words.(f) <- book_words.(f) + (raw_words f - w);
    book_ns.(f) <- book_ns.(f) + (raw_clock f - t)
  end

let enter ~faulting id op =
  let f = fibre_id () in
  let t = raw_clock f and w = raw_words f in
  let fb = fibres.(f) in
  grow fb;
  let i = fb.n in
  fb.n <- i + 1;
  let b = i * stride in
  let a = fb.a in
  a.(b + f_name) <- id;
  a.(b + f_op) <- op;
  a.(b + f_parent) <- (if fb.depth > 0 then fb.stack.(fb.depth - 1) else -1);
  a.(b + f_child_ns) <- 0;
  a.(b + f_child_words) <- 0;
  a.(b + f_side) <- 0;
  if faulting then
    for k = 0 to nkinds - 1 do
      fb.kscratch.((fb.depth * nkinds) + k) <- fault_count f k
    done;
  fb.stack.(fb.depth) <- i;
  fb.depth <- fb.depth + 1;
  booked f t w;
  a.(b + f_words) <- raw_words f - book_words.(f);
  a.(b + f_start) <- raw_clock f - book_ns.(f)

let exit_ ~faulting =
  let f = fibre_id () in
  let t = raw_clock f and w = raw_words f in
  let fb = fibres.(f) in
  fb.depth <- fb.depth - 1;
  let i = fb.stack.(fb.depth) in
  let a = fb.a in
  let b = i * stride in
  a.(b + f_end) <- t - book_ns.(f);
  let dw = w - book_words.(f) - a.(b + f_words) in
  a.(b + f_words) <- dw;
  let dur = a.(b + f_end) - a.(b + f_start) in
  let p = a.(b + f_parent) in
  if p >= 0 then begin
    a.((p * stride) + f_child_ns) <- a.((p * stride) + f_child_ns) + dur;
    a.((p * stride) + f_child_words) <- a.((p * stride) + f_child_words) + dw
  end;
  if faulting && not !parallel then begin
    let total = ref 0 and kind = ref (-1) in
    for k = 0 to nkinds - 1 do
      let d = fault_count f k - fb.kscratch.((fb.depth * nkinds) + k) in
      if d > 0 then begin
        total := !total + d;
        kind := k
      end
    done;
    if !total = 1 then begin
      grow fb;
      let j = fb.n in
      fb.n <- j + 1;
      let c = j * stride in
      Array.blit fb.a b fb.a c stride;
      fb.a.(c + f_name) <- kind_ids.(!kind);
      fb.a.(c + f_parent) <- i;
      fb.a.(c + f_child_ns) <- 0;
      fb.a.(c + f_child_words) <- 0;
      fb.a.(c + f_side) <- 1
    end
  end;
  booked f t w

(* The op timer: the calling fibre's compensated clock while tracing,
   so an op's host time and its spans are read on the same clock. *)
let op_clock () =
  if !on then
    let f = fibre_id () in
    raw_clock f - book_ns.(f)
  else now_ns ()

(* Benchmark bookkeeping inside an engine run (count snapshots): a span
   of its own so it is not charged to the engine's self time, and not
   reported. *)
let glue_id = name "bench.glue"

let call id op f =
  enter ~faulting:false id op;
  match f () with
  | r ->
    exit_ ~faulting:false;
    r
  | exception e ->
    exit_ ~faulting:false;
    raise e

let faulting id op f =
  enter ~faulting:true id op;
  match f () with
  | r ->
    exit_ ~faulting:true;
    r
  | exception e ->
    exit_ ~faulting:false;
    raise e

(* --- engine runs: the root span of every pass ---------------------- *)

let run_fn_id = name "hw.engine.run_fn"

(* The root span lives in fibre 0 (outside the engine) and covers the
   whole run; its self time is what the spans inside it do not cover,
   less the tracer's own hook and bookkeeping time. *)
let run eng f =
  let seq = Hw.Engine.domains eng = 0 in
  enter ~faulting:false run_fn_id (-1);
  engine := Some eng;
  parallel := not seq;
  virtual_clock := seq;
  if seq then begin
    Array.fill v_ns 0 max_fibres 0;
    Array.fill v_words 0 max_fibres 0;
    Array.fill v_kinds 0 (Array.length v_kinds) 0;
    Hw.Engine.set_event_hook eng hook
  end;
  for f = 1 to max_fibres - 1 do
    book_ns.(f) <- 0;
    book_words.(f) <- 0
  done;
  hists := [||];
  hook_ns := 0;
  last_words := minor_words ();
  last_ns := now_ns ();
  inside := true;
  let finish () =
    inside := false;
    engine := None;
    let inner_ns = ref !hook_ns and inner_words = ref 0 in
    for f = 1 to max_fibres - 1 do
      inner_ns := !inner_ns + book_ns.(f);
      inner_words := !inner_words + book_words.(f)
    done;
    book_ns.(0) <- book_ns.(0) + !inner_ns;
    book_words.(0) <- book_words.(0) + !inner_words;
    exit_ ~faulting:false
  in
  match Hw.Engine.run_fn eng f with
  | r ->
    finish ();
    r
  | exception e ->
    finish ();
    raise e

(* --- aggregation --------------------------------------------------- *)

(* Growable int vector. *)
module Vec = struct
  type t = { mutable len : int; mutable data : int array }

  let create () = { len = 0; data = Array.make 1024 0 }

  let push v x =
    if v.len = Array.length v.data then begin
      let d = Array.make (max 1024 (2 * v.len)) 0 in
      Array.blit v.data 0 d 0 v.len;
      v.data <- d
    end;
    v.data.(v.len) <- x;
    v.len <- v.len + 1

  let median v =
    if v.len = 0 then 0.
    else begin
      let s = Array.sub v.data 0 v.len in
      Array.sort compare s;
      if v.len mod 2 = 1 then float_of_int s.(v.len / 2)
      else float_of_int (s.((v.len / 2) - 1) + s.(v.len / 2)) /. 2.
    end
end

let self_ns = Array.init 64 (fun _ -> Vec.create ())
let self_words = Array.init 64 (fun _ -> Vec.create ())

(* Per-op coverage of the current pass: summed duration of each op's
   top-level spans (children of the root). *)
let op_cover = ref [||]

let set_ops n =
  if Array.length !op_cover < n then op_cover := Array.make n 0
  else Array.fill !op_cover 0 n 0

(* Raw spans of the first traced pass, written out at the end. *)
let kept : (int * int array) list ref = ref []
let kept_passes = ref 0

(* Measure of the union of [intervals] (start, end). *)
let union_ns intervals =
  let s = List.sort compare intervals in
  let rec go acc cur_s cur_e = function
    | [] -> acc + (cur_e - cur_s)
    | (s, e) :: rest ->
      if s > cur_e then go (acc + (cur_e - cur_s)) s e rest
      else go acc cur_s (max cur_e e) rest
  in
  match s with [] -> 0 | (s0, e0) :: rest -> go 0 s0 e0 rest

(* Fold the pass's spans into the per-name samples and reset the
   buffers.  Call after the pass's root span has closed. *)
let end_pass () =
  let root = fibres.(0) in
  let root_children_ns = ref 0 and root_children_words = ref 0 in
  let intervals = ref [] in
  Array.iteri
    (fun f fb ->
      if fb.n > 0 && !kept_passes = 0 then
        kept := (f, Array.sub fb.a 0 (fb.n * stride)) :: !kept;
      for i = 0 to fb.n - 1 do
        let b = i * stride in
        let a = fb.a in
        let top = f > 0 && a.(b + f_parent) < 0 in
        if top && a.(b + f_side) = 0 then begin
          let dur = a.(b + f_end) - a.(b + f_start) in
          root_children_ns := !root_children_ns + dur;
          (* the root reads the coordinator's minor-word counter; on the
             parallel engine only the main fibre (1) runs there *)
          if f = 1 || not !parallel then
            root_children_words := !root_children_words + a.(b + f_words);
          intervals := (a.(b + f_start), a.(b + f_end)) :: !intervals;
          let op = a.(b + f_op) in
          if op >= 0 && op < Array.length !op_cover then
            !op_cover.(op) <- !op_cover.(op) + dur
        end;
        if f > 0 then begin
          let id = a.(b + f_name) in
          Vec.push self_ns.(id)
            (a.(b + f_end) - a.(b + f_start) - a.(b + f_child_ns));
          Vec.push self_words.(id) (a.(b + f_words) - a.(b + f_child_words))
        end
      done)
    fibres;
  (* fibre 0 holds only root spans (one per engine run of the pass) *)
  let covered =
    if !parallel then union_ns !intervals else !root_children_ns
  in
  let root_ns = ref 0 and root_words = ref 0 in
  for i = 0 to root.n - 1 do
    let b = i * stride in
    root_ns := !root_ns + (root.a.(b + f_end) - root.a.(b + f_start));
    root_words := !root_words + root.a.(b + f_words)
  done;
  if root.n > 0 then begin
    Vec.push self_ns.(run_fn_id) ((!root_ns - covered) / root.n);
    Vec.push self_words.(run_fn_id) ((!root_words - !root_children_words) / root.n)
  end;
  incr kept_passes;
  Array.iter
    (fun fb ->
      fb.n <- 0;
      fb.depth <- 0)
    fibres

(* Write the kept raw spans as one JSON object, a span per line. *)
let write_json path ~meta =
  let oc = open_out path in
  Printf.fprintf oc "{%s,\"spans\":[" meta;
  let first = ref true in
  List.iter
    (fun (f, a) ->
      for i = 0 to (Array.length a / stride) - 1 do
        let b = i * stride in
        if not !first then output_string oc ",\n";
        first := false;
        Printf.fprintf oc
          "{\"name\":%S,\"fibre\":%d,\"id\":%d,\"parent\":%d,\"op\":%d,\"start_ns\":%d,\"end_ns\":%d,\"words\":%d}"
          !names.(a.(b + f_name)) f i a.(b + f_parent) a.(b + f_op)
          a.(b + f_start) a.(b + f_end) a.(b + f_words)
      done)
    (List.rev !kept);
  output_string oc "]}\n";
  close_out oc
