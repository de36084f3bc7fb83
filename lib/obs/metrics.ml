(* Aggregated observability: counters, sim-time histograms and the
   per-primitive attribution table.  Updates never advance the
   simulated clock, and since the parallel engine they must also be
   domain-safe: a fault resolved inside a pool slice observes its
   latency from a worker domain while another worker charges
   primitives concurrently.  Every cell is therefore an [Atomic.t] —
   updates are single fetch-and-adds (CAS loops only for histogram
   min/max), totals are exact at quiescence, and reads are idempotent
   snapshots.  Registration (name -> cell lookup) takes a registry
   mutex; hot paths are expected to register once and keep the
   handle. *)

type counter = { c_name : string; c_value : int Atomic.t }

type histogram = {
  h_name : string;
  h_count : int Atomic.t;
  h_sum : int Atomic.t;
  h_min : int Atomic.t;
  h_max : int Atomic.t;
}

type hstats = { count : int; sum : int; min : int; max : int }

type t = {
  lock : Mutex.t; (* guards the two registration tables only *)
  cs : (string, counter) Hashtbl.t;
  hs : (string, histogram) Hashtbl.t;
  prim_names : string array;
  prim_count : int Atomic.t array;
  prim_ns : int Atomic.t array;
}

let acell () = Atomic.make 0

let create ?(prims = [||]) () =
  {
    lock = Mutex.create ();
    cs = Hashtbl.create 32;
    hs = Hashtbl.create 32;
    prim_names = prims;
    prim_count = Array.init (Array.length prims) (fun _ -> acell ());
    prim_ns = Array.init (Array.length prims) (fun _ -> acell ());
  }

let reset t =
  Mutex.lock t.lock;
  Hashtbl.reset t.cs;
  Hashtbl.reset t.hs;
  Mutex.unlock t.lock;
  Array.iter (fun c -> Atomic.set c 0) t.prim_count;
  Array.iter (fun c -> Atomic.set c 0) t.prim_ns

let counter t name =
  Mutex.lock t.lock;
  let c =
    match Hashtbl.find_opt t.cs name with
    | Some c -> c
    | None ->
      let c = { c_name = name; c_value = acell () } in
      Hashtbl.replace t.cs name c;
      c
  in
  Mutex.unlock t.lock;
  c

let incr ?(by = 1) c = ignore (Atomic.fetch_and_add c.c_value by)
let set c v = Atomic.set c.c_value v
let value c = Atomic.get c.c_value

let counters t =
  Mutex.lock t.lock;
  let cs =
    Hashtbl.fold (fun _ c acc -> (c.c_name, Atomic.get c.c_value) :: acc) t.cs []
  in
  Mutex.unlock t.lock;
  List.sort compare cs

let histogram t name =
  Mutex.lock t.lock;
  let h =
    match Hashtbl.find_opt t.hs name with
    | Some h -> h
    | None ->
      let h =
        {
          h_name = name;
          h_count = acell ();
          h_sum = acell ();
          h_min = Atomic.make max_int;
          h_max = acell ();
        }
      in
      Hashtbl.replace t.hs name h;
      h
  in
  Mutex.unlock t.lock;
  h

let rec atomic_min cell v =
  let cur = Atomic.get cell in
  if v < cur && not (Atomic.compare_and_set cell cur v) then atomic_min cell v

let rec atomic_max cell v =
  let cur = Atomic.get cell in
  if v > cur && not (Atomic.compare_and_set cell cur v) then atomic_max cell v

let observe h ns =
  Atomic.incr h.h_count;
  ignore (Atomic.fetch_and_add h.h_sum ns);
  atomic_min h.h_min ns;
  atomic_max h.h_max ns

let clear_histogram h =
  Atomic.set h.h_count 0;
  Atomic.set h.h_sum 0;
  Atomic.set h.h_min max_int;
  Atomic.set h.h_max 0

let histogram_stats h =
  let count = Atomic.get h.h_count in
  {
    count;
    sum = Atomic.get h.h_sum;
    min = (if count = 0 then 0 else Atomic.get h.h_min);
    max = Atomic.get h.h_max;
  }

let histograms t =
  Mutex.lock t.lock;
  let hs = Hashtbl.fold (fun _ h acc -> h :: acc) t.hs [] in
  Mutex.unlock t.lock;
  List.sort compare (List.map (fun h -> (h.h_name, histogram_stats h)) hs)

let charge t ~idx ~ns =
  if idx >= 0 && idx < Array.length t.prim_count then begin
    Atomic.incr t.prim_count.(idx);
    ignore (Atomic.fetch_and_add t.prim_ns.(idx) ns)
  end

let prim_report t =
  Array.to_list
    (Array.mapi
       (fun i name ->
         (name, Atomic.get t.prim_count.(i), Atomic.get t.prim_ns.(i)))
       t.prim_names)

(* --- Reporting ---------------------------------------------------- *)

let to_json t : Json.t =
  let num i = Json.Num (float_of_int i) in
  Json.Obj
    [
      ( "counters",
        Json.Obj (List.map (fun (name, v) -> (name, num v)) (counters t)) );
      ( "histograms",
        Json.Obj
          (List.map
             (fun (name, s) ->
               ( name,
                 Json.Obj
                   [
                     ("count", num s.count);
                     ("sum_ns", num s.sum);
                     ("min_ns", num s.min);
                     ("max_ns", num s.max);
                   ] ))
             (histograms t)) );
      ( "primitives",
        Json.Obj
          (List.filter_map
             (fun (name, count, ns) ->
               if count > 0 then
                 Some
                   ( name,
                     Json.Obj [ ("count", num count); ("total_ns", num ns) ] )
               else None)
             (prim_report t)) );
    ]

let ms ns = float_of_int ns /. 1e6

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  (match counters t with
  | [] -> ()
  | cs ->
    Format.fprintf ppf "counters:@,";
    List.iter (fun (name, v) -> Format.fprintf ppf "  %-28s %10d@," name v) cs);
  (match histograms t with
  | [] -> ()
  | hs ->
    Format.fprintf ppf "sim-time histograms (ms):@,";
    Format.fprintf ppf "  %-28s %8s %10s %10s %10s %10s@," "" "count" "total"
      "mean" "min" "max";
    List.iter
      (fun (name, s) ->
        Format.fprintf ppf "  %-28s %8d %10.3f %10.3f %10.3f %10.3f@," name
          s.count (ms s.sum)
          (if s.count = 0 then 0. else ms s.sum /. float_of_int s.count)
          (ms s.min) (ms s.max))
      hs);
  let prims = List.filter (fun (_, c, _) -> c > 0) (prim_report t) in
  (match prims with
  | [] -> ()
  | prims ->
    let total = List.fold_left (fun acc (_, _, ns) -> acc + ns) 0 prims in
    Format.fprintf ppf
      "per-primitive sim-time attribution (\xc2\xa75.3.2 decomposition):@,";
    Format.fprintf ppf "  %-28s %10s %12s %7s@," "" "count" "total ms" "share";
    List.iter
      (fun (name, count, ns) ->
        Format.fprintf ppf "  %-28s %10d %12.3f %6.1f%%@," name count (ms ns)
          (if total = 0 then 0.
           else 100. *. float_of_int ns /. float_of_int total))
      (List.sort (fun (_, _, a) (_, _, b) -> compare b a) prims);
    Format.fprintf ppf "  %-28s %10s %12.3f@," "total" "" (ms total));
  Format.fprintf ppf "@]"
