(* Tracing sink: per-domain ring buffers of typed records over an
   injected simulated clock, dependency-free (timestamps are plain ns
   integers) so that the hardware layer — the discrete-event engine
   included — can depend on it.

   One recording path: each domain records into its own shard, found
   in a per-tracer registry keyed by [Domain.self ()], so recording
   never locks or races; the sequential engine is one shard that is
   never inside a slice.  A pool slice's CPU placement and clock shift
   are known only once it completes (the engine assigns CPUs greedily
   at slice end), so slice records are staged and then committed —
   shifted, plus one per-CPU "slice" span — by {!slice_commit}.  A span
   may begin and end on different domains (the fibre parked and was
   resumed elsewhere), so shards store separate begin/end records
   stamped with a global sequence number, and {!events} pairs them per
   fibre at quiescence. *)

type value = Int of int | Str of string
type args = (string * value) list

type event =
  | Span of {
      name : string;
      cat : string;
      ts : int;
      dur : int;
      fib : int;
      args : args;
    }
  | Instant of { name : string; cat : string; ts : int; fib : int; args : args }
  | Counter of { name : string; ts : int; value : int }

(* Shard records: span begins and ends travel separately (a span can
   cross slices and domains); [r_seq] is the global recording order
   that lets the merge re-pair them per fibre. *)
type raw =
  | R_begin of { r_seq : int; name : string; cat : string; ts : int; fib : int }
  | R_end of { r_seq : int; ts : int; fib : int; args : args }
  | R_done of { r_seq : int; ev : event }

type shard = {
  mutable sh_buf : raw array; (* committed ring, owner-domain writes *)
  mutable sh_start : int;
  mutable sh_len : int;
  mutable sh_dropped : int;
  mutable sh_pend : raw array; (* current slice, clocks still tentative *)
  mutable sh_pend_len : int;
  mutable sh_in_slice : bool;
}

type t = {
  capacity : int;
  mutable enabled : bool;
  mutable clock : unit -> int;
  mutable fibre : unit -> int;
  fibre_names : (int, string) Hashtbl.t;
  names_lock : Mutex.t; (* fibres spawn from worker domains too *)
  seq : int Atomic.t;
  (* one shard per recording domain, newest first; shards die with the
     tracer (no domain-local state keeps them) *)
  shards : (Domain.id * shard) list Atomic.t;
}

let raw_filler = R_done { r_seq = 0; ev = Counter { name = ""; ts = 0; value = 0 } }

let create ?(capacity = 262_144) () =
  {
    capacity = max capacity 0;
    enabled = false;
    clock = (fun () -> 0);
    fibre = (fun () -> 0);
    fibre_names = Hashtbl.create 16;
    names_lock = Mutex.create ();
    seq = Atomic.make 1;
    shards = Atomic.make [];
  }

(* Capacity 0 makes [enable] a no-op: the null sink can never record. *)
let null = create ~capacity:0 ()

let enabled t = t.enabled
let enable t = if t.capacity > 0 then t.enabled <- true
let disable t = t.enabled <- false

let clear t =
  List.iter
    (fun (_, s) ->
      s.sh_start <- 0;
      s.sh_len <- 0;
      s.sh_dropped <- 0;
      s.sh_pend_len <- 0;
      s.sh_in_slice <- false)
    (Atomic.get t.shards)

let set_clock t clock = t.clock <- clock
let set_fibre t fibre = t.fibre <- fibre

let name_fibre t fib name =
  if t.capacity > 0 then begin
    Mutex.lock t.names_lock;
    Hashtbl.replace t.fibre_names fib name;
    Mutex.unlock t.names_lock
  end

(* --- Shards ------------------------------------------------------- *)

(* The calling domain's shard, registered on its first record.  Only
   the owning domain ever adds its own entry, so a lost CAS race (with
   another domain registering) just retries. *)
let rec my_shard t =
  let self = Domain.self () in
  let registry = Atomic.get t.shards in
  match List.assq_opt self registry with
  | Some s -> s
  | None ->
    let s =
      {
        sh_buf = [||];
        sh_start = 0;
        sh_len = 0;
        sh_dropped = 0;
        sh_pend = [||];
        sh_pend_len = 0;
        sh_in_slice = false;
      }
    in
    if Atomic.compare_and_set t.shards registry ((self, s) :: registry) then s
    else my_shard t

(* Ring insert into the owning domain's shard: no locks, no
   allocation (the ring array is lazily created once). *)
let[@chorus.hot] [@chorus.alloc_ok
                   "one-time lazy creation of the shard's ring array; every \
                    subsequent push is allocation-free"] ring_push t s r =
  if s.sh_buf = [||] then s.sh_buf <- Array.make t.capacity raw_filler;
  if s.sh_len < t.capacity then begin
    s.sh_buf.((s.sh_start + s.sh_len) mod t.capacity) <- r;
    s.sh_len <- s.sh_len + 1
  end
  else begin
    s.sh_buf.(s.sh_start) <- r;
    s.sh_start <- (s.sh_start + 1) mod t.capacity;
    s.sh_dropped <- s.sh_dropped + 1
  end

(* Stage or commit one record on the calling domain's shard: pending
   while inside a pool slice (the slice's clock shift is unknown until
   it completes), straight to the ring otherwise (sequential, coordinator
   and post-run records need no shift). *)
let[@chorus.hot] record t r =
  let s = my_shard t in
  if s.sh_in_slice then begin
    if s.sh_pend_len >= t.capacity then s.sh_dropped <- s.sh_dropped + 1
    else begin
      let cap = Array.length s.sh_pend in
      if s.sh_pend_len = cap then begin
        let ncap = if cap = 0 then 256 else min (cap * 2) t.capacity in
        let nbuf = Array.make ncap raw_filler in
        Array.blit s.sh_pend 0 nbuf 0 s.sh_pend_len;
        s.sh_pend <- nbuf
      end;
      s.sh_pend.(s.sh_pend_len) <- r;
      s.sh_pend_len <- s.sh_pend_len + 1
    end
  end
  else ring_push t s r

let[@chorus.hot] next_seq t = Atomic.fetch_and_add t.seq 1

let shift_raw shift r =
  if shift = 0 then r
  else
    match r with
    | R_begin b -> R_begin { b with ts = b.ts + shift }
    | R_end e -> R_end { e with ts = e.ts + shift }
    | R_done { r_seq; ev } ->
      let ev =
        match ev with
        | Span s -> Span { s with ts = s.ts + shift }
        | Instant i -> Instant { i with ts = i.ts + shift }
        | Counter c -> Counter { c with ts = c.ts + shift }
      in
      R_done { r_seq; ev }

(* Engine hooks around one pool slice (worker domains only). *)

let slice_begin t = if t.enabled then (my_shard t).sh_in_slice <- true

(* Commit the slice that just completed on this domain: the engine has
   placed it on simulated CPU [cpu] over [t0, t1] and shifted its
   virtual clock by [shift].  The staged events move to the shard ring
   with their clocks made final, plus one per-CPU "slice" span (cat
   ["cpu"]) that builds the CPU tracks of the merged timeline. *)
let slice_commit t ~cpu ~fib ~t0 ~t1 ~shift =
  if t.enabled then begin
    let s = my_shard t in
    s.sh_in_slice <- false;
    let n = s.sh_pend_len in
    for i = 0 to n - 1 do
      ring_push t s (shift_raw shift s.sh_pend.(i));
      s.sh_pend.(i) <- raw_filler
    done;
    s.sh_pend_len <- 0;
    if t1 > t0 || n > 0 then
      ring_push t s
        (R_done
           {
             r_seq = next_seq t;
             ev =
               Span
                 {
                   name = "slice";
                   cat = "cpu";
                   ts = t0;
                   dur = t1 - t0;
                   fib = cpu;
                   args = [ ("fib", Int fib) ];
                 };
           })
  end

(* --- Recording entry points --------------------------------------- *)

let span_begin t ?(cat = "") name =
  if t.enabled then
    record t
      (R_begin
         { r_seq = next_seq t; name; cat; ts = t.clock (); fib = t.fibre () })

let span_end ?(args = []) t =
  if t.enabled then
    record t
      (R_end { r_seq = next_seq t; ts = t.clock (); fib = t.fibre (); args })

let with_span t ?cat name f =
  if not t.enabled then f ()
  else begin
    span_begin t ?cat name;
    match f () with
    | v ->
      span_end t;
      v
    | exception e ->
      span_end ~args:[ ("exception", Str (Printexc.to_string e)) ] t;
      raise e
  end

let instant t ?(cat = "") ?(args = []) name =
  if t.enabled then
    record t
      (R_done
         {
           r_seq = next_seq t;
           ev = Instant { name; cat; ts = t.clock (); fib = t.fibre (); args };
         })

let counter t name value =
  if t.enabled then
    record t
      (R_done
         { r_seq = next_seq t; ev = Counter { name; ts = t.clock (); value } })

(* The cost-attribution fast path: one record per charged primitive
   inside the fault handlers. *)
let[@chorus.hot] [@chorus.alloc_ok
                   "the cost record is the tracer's payload: one block per \
                    charged primitive, by design"] charge t ~prim ~span =
  if t.enabled then
    record t
      (R_done
         {
           r_seq = next_seq t;
           ev =
             Instant
               {
                 name = prim;
                 cat = "cost";
                 ts = t.clock ();
                 fib = t.fibre ();
                 args = [ ("ns", Int span) ];
               };
         })

(* --- Reading ------------------------------------------------------ *)

let raw_seq = function
  | R_begin { r_seq; _ } | R_end { r_seq; _ } | R_done { r_seq; _ } -> r_seq

(* Per-fibre stacks of open spans; fibre ids hash to themselves. *)
module Fibres = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash fib = fib land max_int
end)

(* Merge the shard rings into complete events: all records in global
   recording order, span begins and ends re-paired per fibre.  Each
   shard is already in recording order (its ring, then its staged
   slice), so only several shards need sorting.  A begin whose end was
   never recorded (still open, or lost) yields no span; an end with no
   open begin on its fibre (unbalanced, or its begin was overwritten
   in the ring) is skipped.  A span sits where it closed. *)
let events t =
  let shard_get s i =
    if i < s.sh_len then s.sh_buf.((s.sh_start + i) mod t.capacity)
    else s.sh_pend.(i - s.sh_len)
  in
  let n, get =
    match Atomic.get t.shards with
    | [ (_, s) ] -> (s.sh_len + s.sh_pend_len, shard_get s)
    | shards ->
      let raws =
        Array.concat
          (List.map
             (fun (_, s) -> Array.init (s.sh_len + s.sh_pend_len) (shard_get s))
             shards)
      in
      Array.stable_sort (fun a b -> Int.compare (raw_seq a) (raw_seq b)) raws;
      (Array.length raws, Array.get raws)
  in
  (* forward: pair each end with the innermost open begin of its fibre *)
  let opener = Array.make n (-1) in
  let stacks = Fibres.create 32 in
  let stack fib =
    match Fibres.find_opt stacks fib with
    | Some st -> st
    | None ->
      let st = ref [] in
      Fibres.add stacks fib st;
      st
  in
  for i = 0 to n - 1 do
    match get i with
    | R_begin { fib; _ } ->
      let st = stack fib in
      st := i :: !st
    | R_end { fib; _ } -> (
      let st = stack fib in
      match !st with
      | [] -> ()
      | j :: rest ->
        st := rest;
        opener.(i) <- j)
    | R_done _ -> ()
  done;
  (* backward: build the list, each span where it closed *)
  let evs = ref [] in
  for i = n - 1 downto 0 do
    match get i with
    | R_done { ev; _ } -> evs := ev :: !evs
    | R_end { ts; fib; args; _ } when opener.(i) >= 0 -> (
      match get opener.(i) with
      | R_begin { name; cat; ts = ts0; _ } ->
        (* begin and end were shifted by their own slices' placements,
           so clamp: a span that closed "before" it opened collapses
           to an instant-like zero-width span *)
        evs :=
          Span { name; cat; ts = ts0; dur = max 0 (ts - ts0); fib; args } :: !evs
      | R_end _ | R_done _ -> () (* an opener is always a begin *))
    | R_begin _ | R_end _ -> ()
  done;
  !evs

let length t = List.length (events t)

let dropped t =
  List.fold_left (fun n (_, s) -> n + s.sh_dropped) 0 (Atomic.get t.shards)

(* --- Export ------------------------------------------------------- *)

let ts_of = function Span { ts; _ } | Instant { ts; _ } | Counter { ts; _ } -> ts
let dur_of = function Span { dur; _ } -> dur | Instant _ | Counter _ -> 0

(* Chronological; an enclosing span sorts before the spans and
   instants it contains (same ts, longer duration first). *)
let sorted_events t =
  List.stable_sort
    (fun a b ->
      let c = compare (ts_of a) (ts_of b) in
      if c <> 0 then c else compare (dur_of b) (dur_of a))
    (events t)

let json_escape buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let add_json_string buf s =
  Buffer.add_char buf '"';
  json_escape buf s;
  Buffer.add_char buf '"'

let add_us buf ns =
  (* trace_event timestamps are microseconds; keep ns precision in the
     fraction *)
  Buffer.add_string buf (Printf.sprintf "%.3f" (float_of_int ns /. 1e3))

let add_args buf args =
  Buffer.add_string buf "\"args\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      add_json_string buf k;
      Buffer.add_char buf ':';
      match v with
      | Int n -> Buffer.add_string buf (string_of_int n)
      | Str s -> add_json_string buf s)
    args;
  Buffer.add_char buf '}'

(* Events in category "cpu" (the per-slice placement spans of pool
   slices) render as a second Chrome process whose threads are
   the simulated CPUs; everything else keeps pid 1 with one thread per
   fibre. *)
let pid_of_cat cat = if cat = "cpu" then 2 else 1

let add_event buf ev =
  let common ~name ~cat ~ph ~ts ~pid ~fib =
    Buffer.add_string buf "{\"name\":";
    add_json_string buf name;
    if cat <> "" then begin
      Buffer.add_string buf ",\"cat\":";
      add_json_string buf cat
    end;
    Buffer.add_string buf (Printf.sprintf ",\"ph\":\"%s\",\"ts\":" ph);
    add_us buf ts;
    Buffer.add_string buf (Printf.sprintf ",\"pid\":%d,\"tid\":%d" pid fib)
  in
  (match ev with
  | Span { name; cat; ts; dur; fib; args } ->
    common ~name ~cat ~ph:"X" ~ts ~pid:(pid_of_cat cat) ~fib;
    Buffer.add_string buf ",\"dur\":";
    add_us buf dur;
    Buffer.add_char buf ',';
    add_args buf args
  | Instant { name; cat; ts; fib; args } ->
    common ~name ~cat ~ph:"i" ~ts ~pid:(pid_of_cat cat) ~fib;
    Buffer.add_string buf ",\"s\":\"t\",";
    add_args buf args
  | Counter { name; ts; value } ->
    common ~name ~cat:"" ~ph:"C" ~ts ~pid:1 ~fib:0;
    Buffer.add_char buf ',';
    add_args buf [ ("value", Int value) ]);
  Buffer.add_char buf '}'

let to_chrome_json t =
  let evs = sorted_events t in
  let buf = Buffer.create 65_536 in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  let first = ref true in
  let sep () =
    if !first then first := false else Buffer.add_string buf ",\n"
  in
  (* thread_name metadata first, sorted for determinism *)
  Hashtbl.fold (fun fib name acc -> (fib, name) :: acc) t.fibre_names []
  |> List.sort compare
  |> List.iter (fun (fib, name) ->
         sep ();
         Buffer.add_string buf
           (Printf.sprintf
              "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\
               \"args\":{\"name\":"
              fib);
         add_json_string buf name;
         Buffer.add_string buf "}}");
  (* one track per simulated CPU, when pool slices recorded any *)
  let cpus =
    List.sort_uniq compare
      (List.filter_map
         (function Span { cat = "cpu"; fib; _ } -> Some fib | _ -> None)
         evs)
  in
  if cpus <> [] then begin
    sep ();
    Buffer.add_string buf
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"fibres\"}}";
    sep ();
    Buffer.add_string buf
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"args\":{\"name\":\"simulated CPUs\"}}";
    List.iter
      (fun cpu ->
        sep ();
        Buffer.add_string buf
          (Printf.sprintf
             "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":2,\"tid\":%d,\
              \"args\":{\"name\":\"cpu %d\"}}"
             cpu cpu))
      cpus
  end;
  List.iter
    (fun ev ->
      sep ();
      add_event buf ev)
    evs;
  (* ring-overwrite count as top-level metadata: a nonzero value means
     the buffer was too small and the trace is a suffix of the run *)
  Buffer.add_string buf
    (Printf.sprintf
       "],\"otherData\":{\"droppedEvents\":%d,\"bufferedEvents\":%d}}\n"
       (dropped t) (List.length evs));
  Buffer.contents buf

let pp_value ppf = function
  | Int n -> Format.fprintf ppf "%d" n
  | Str s -> Format.fprintf ppf "%s" s

let pp_args ppf args =
  List.iter (fun (k, v) -> Format.fprintf ppf " %s=%a" k pp_value v) args

let pp_text ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun ev ->
      match ev with
      | Span { name; cat; ts; dur; fib; args } ->
        Format.fprintf ppf "%12dns fib%-3d span    %-14s %s dur=%dns%a@," ts
          fib name cat dur pp_args args
      | Instant { name; cat; ts; fib; args } ->
        Format.fprintf ppf "%12dns fib%-3d instant %-14s %s%a@," ts fib name
          cat pp_args args
      | Counter { name; ts; value } ->
        Format.fprintf ppf "%12dns        counter %-14s = %d@," ts name value)
    (sorted_events t);
  if dropped t > 0 then
    Format.fprintf ppf "(%d events dropped by the ring buffer)@," (dropped t);
  Format.fprintf ppf "@]"
