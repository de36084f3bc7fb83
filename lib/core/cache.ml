(* Local-cache operations: the segment-access half of the GMI
   (Table 1: cacheCreate / copy / move) and the cache-management half
   (Table 4: fillUp / copyBack / moveBack / flush / sync / invalidate
   / setProtection / destroy). *)

open Types

let create pvm ?backing () =
  Install.new_cache pvm ?backing ~anonymous:(backing = None) ~is_history:false
    ()

let create_anonymous pvm = create pvm ()

(* --- Purging a destination range --------------------------------- *)

(* Before a range of a cache is overwritten (by a new copy, a move, or
   destruction), every structure that still depends on its current
   contents must be satisfied:
   - per-page stubs reading through our resident pages get their own
     copies;
   - pending stubs whose deferred value lives in this range are
     materialised;
   - originals our history object has not yet saved are pushed to it
     (otherwise our descendants would observe the overwrite);
   then our own pages, stubs and incoming fragments in the range are
   dropped. *)

let own_pages_in_range (cache : cache) ~off ~size =
  List.filter
    (fun p -> p.p_offset >= off && p.p_offset < off + size)
    cache.c_pages

let page_offsets pvm ~off ~size =
  let ps = page_size pvm in
  let first = page_align_down pvm off in
  let last = page_align_up pvm (off + size) in
  let rec go o acc = if o >= last then List.rev acc else go (o + ps) (o :: acc) in
  go first []

(* Does any per-page stub still read through this cache (threaded on
   its pages, or pending keyed on it)? *)
let has_stub_readers pvm (cache : cache) =
  List.exists (fun (p : page) -> p.p_cow_stubs <> []) cache.c_pages
  || (Shard_map.fold
        (fun (cid, _) _ acc -> acc || cid = cache.c_id)
        pvm.stub_sources false)
     [@chorus.noted
       "scans the whole pending-stub table for rows keyed on this cache; \
        key-set footprints cannot express a whole-table read — see DESIGN.md \
        §4f"]

(* A hidden (zombie) cache is collectable once nothing reads it:
   no fragment children, no mapping regions, no stub readers.  [write]
   is the footprint recorded: the stub-death reaper notes a write, as
   it goes on to tear the cache down. *)
let unread_zombie ~write pvm (cache : cache) =
  note_structure ~write pvm;
  cache.c_alive && cache.c_zombie && cache.c_children = []
  && cache.c_mappings = []
  && not (has_stub_readers pvm cache)

let collectable pvm cache = unread_zombie ~write:false pvm cache

(* Detach [cache]'s fragment links to parents it no longer references;
   collect zombie history chains that become childless. *)
let[@chorus.guarded
     "topology surgery: runs only from the owning site's serial-class \
      fibres or at pool quiescence; the parallel fault path only reads \
      parent/child lists"] rec detach_unreferenced pvm (cache : cache)
    ~parents_before =
  note_structure pvm;
  List.iter
    (fun (parent : cache) ->
      let still =
        List.exists (fun f -> f.f_parent == parent) cache.c_parents
      in
      if not still then begin
        parent.c_children <-
          List.filter (fun c -> not (c == cache)) parent.c_children;
        History.child_detached parent cache;
        if collectable pvm parent then teardown pvm parent
      end)
    parents_before

(* Fully dismantle a cache that nothing depends on any more. *)
and teardown pvm (cache : cache) =
  assert (cache.c_children = []);
  (* Stubs we are the destination of die first: they thread through
     OTHER caches' pages, and leaving them alive would let a cascaded
     teardown of those caches materialise pages back into us after our
     own page sweep.  Killing one may recursively tear down a hidden
     node and spawn further kills, so iterate to a fixpoint. *)
  let rec kill_destination_stubs budget =
    if budget = 0 then failwith "teardown: destination stubs not draining";
    let killed = ref false in
    (Hashtbl.iter
       (fun _ entry ->
         match entry with
         | Cow_stub s when s.cs_cache == cache && s.cs_alive ->
           killed := true;
           Pervpage.kill pvm s
         | _ -> ())
       (Shard_map.snapshot pvm.gmap)
     [@chorus.noted
       "teardown sweeps every map row for stubs destined to the dying \
        cache; key-set footprints cannot express a whole-table read — see \
        DESIGN.md §4f"]);
    if !killed then kill_destination_stubs (budget - 1)
  in
  kill_destination_stubs 64;
  (* pending stubs reading through us get their values now *)
  (Hashtbl.iter
     (fun (cid, o) _ ->
       if cid = cache.c_id then Pervpage.materialize_pending pvm cache ~off:o)
     (Shard_map.snapshot pvm.stub_sources)
   [@chorus.noted
     "teardown sweeps every pending-stub row keyed on the dying cache; see \
      DESIGN.md §4f"]);
  (* drop our pages; flushing can insert new ones behind the
     iteration, so drain to a fixpoint *)
  let rec drain_pages budget =
    if budget = 0 then failwith "teardown: pages not draining";
    match cache.c_pages with
    | [] -> ()
    | pages ->
      List.iter
        (fun (p : page) ->
          if p.p_alive then begin
            if p.p_cow_stubs <> [] then
              Pervpage.with_wired p (fun () -> Pervpage.flush_stubs pvm p);
            if p.p_alive then Install.remove_page pvm p ~free_frame:true
          end)
        pages;
      drain_pages (budget - 1)
  in
  drain_pages 64;
  let parents_before =
    List.map (fun f -> f.f_parent) cache.c_parents
    |> List.fold_left (fun acc p -> if List.memq p acc then acc else p :: acc) []
  in
  Parents.detach_all cache;
  cache.c_alive <- false;
  cache.c_zombie <- false;
  note_structure pvm;
  with_mm pvm (fun () ->
      pvm.caches <- List.filter (fun c -> not (c == cache)) pvm.caches);
  detach_unreferenced pvm cache ~parents_before

(* Overlap of fragment [f]'s parent window with [off, off+size) of the
   parent, expressed in the child's offsets. *)
let child_overlap (f : frag) ~off ~size =
  let p_lo = f.f_parent_off and p_hi = f.f_parent_off + f.f_size in
  let lo = max p_lo off and hi = min p_hi (off + size) in
  if lo >= hi then None
  else Some (f.f_off + (lo - f.f_parent_off), hi - lo)

(* Does anything still read the current contents of this range through
   the cache itself (rather than through a resident page)?  History
   children and other fragment children do; so do pending per-page
   stubs whose source key names this cache. *)
let range_has_readers pvm (cache : cache) ~off ~size =
  note_structure ~write:false pvm;
  List.exists
    (fun (child : cache) ->
      List.exists
        (fun f -> f.f_parent == cache && child_overlap f ~off ~size <> None)
        child.c_parents)
    cache.c_children
  || List.exists
       (fun o ->
         note_frag ~write:false pvm cache ~off:o;
         Shard_map.mem pvm.stub_sources (cache.c_id, o))
       (page_offsets pvm ~off ~size)

(* Give the purged range a new hidden identity: a zombie history node
   [z] inherits the range's resident pages, parent fragments, child
   links, destination stubs and pending-stub keys — everything that
   encodes the range's {e old} contents — so existing readers are
   untouched while [cache] starts afresh.  This mirrors the problem
   Mach solves with shadow chains ("the actual reference of a cache
   changes dynamically", §4.2.5); our inverted structures make it a
   pointer splice. *)
let[@chorus.guarded
     "topology surgery: runs only from the owning site's serial-class \
      fibres or at pool quiescence; the parallel fault path only reads \
      parent/child/history edges"] split_to_zombie pvm (cache : cache) ~off
    ~size =
  note_structure pvm;
  let z = Install.new_cache pvm ~anonymous:cache.c_anonymous ~is_history:true () in
  z.c_zombie <- true;
  (* Old values already pushed to an anonymous swap are pulled back so
     they can migrate: z cannot share cache's swap offsets, future
     push-outs of new contents would clobber them.  Once the swap copy
     is forgotten the in-memory page is the only copy, so it is marked
     dirty and pinned until the migration below is done. *)
  let pinned = ref [] in
  let pin (p : page) =
    p.p_wire_count <- p.p_wire_count + 1;
    pinned := p :: !pinned
  in
  (* Pin every resident page of the range first: the swap pull-backs
     below allocate frames and must not be able to steal them. *)
  List.iter pin (own_pages_in_range cache ~off ~size);
  if cache.c_anonymous then
    List.iter
      (fun o ->
        if Hashtbl.mem cache.c_backed_offs o then begin
          (match Global_map.wait_not_in_transit pvm cache ~off:o with
          | Some (Resident p) -> p.p_dirty <- true
          | None ->
            let p = Value.pull_in_page pvm cache ~off:o ~prot:Hw.Prot.all in
            p.p_dirty <- true;
            pin p
          | Some (Cow_stub _) ->
            (* a deferred value shadows the swap copy; the swap copy is
               dead *)
            ()
          | Some (Sync_stub _) -> assert false);
          Hashtbl.remove cache.c_backed_offs o
        end)
      (page_offsets pvm ~off ~size)
  else z.c_backing <- cache.c_backing;
  (* Re-key pending stubs first so migrating pages re-thread them. *)
  List.iter
    (fun o ->
      note_frag pvm cache ~off:o;
      note_frag pvm z ~off:o;
      match Shard_map.find_opt pvm.stub_sources (cache.c_id, o) with
      | None -> ()
      | Some stubs ->
        Shard_map.remove pvm.stub_sources (cache.c_id, o);
        List.iter
          (fun s ->
            match s.cs_source with
            | Src_cache (c, so) when c == cache -> s.cs_source <- Src_cache (z, so)
            | Src_cache _ | Src_page _ -> ())
          stubs;
        Shard_map.replace pvm.stub_sources (z.c_id, o) stubs)
    (page_offsets pvm ~off ~size);
  (* Migrate resident pages (frame reassignment, no copying). *)
  List.iter
    (fun (p : page) ->
      Install.reassign_page pvm ~preserve:true p z ~dst_off:p.p_offset)
    (own_pages_in_range cache ~off ~size);
  (* Migrate destination-side stubs: they are part of the range's old
     contents. *)
  List.iter
    (fun o ->
      match Global_map.wait_not_in_transit pvm cache ~off:o with
      | Some (Cow_stub s) ->
        Global_map.remove pvm cache ~off:o;
        let s' = { s with cs_cache = z } in
        s.cs_alive <- false;
        (match s.cs_source with
        | Src_page p ->
          p.p_cow_stubs <-
            s' :: List.filter (fun x -> not (x == s)) p.p_cow_stubs
        | Src_cache (c, so) -> (
          note_frag pvm c ~off:so;
          match Shard_map.find_opt pvm.stub_sources (c.c_id, so) with
          | Some stubs ->
            Shard_map.replace pvm.stub_sources (c.c_id, so)
              (s' :: List.filter (fun x -> not (x == s)) stubs)
          | None -> ()));
        Global_map.set pvm z ~off:o (Cow_stub s')
      | _ -> ())
    (page_offsets pvm ~off ~size);
  (* Migrate parent fragments covering the range.  If this cache was a
     parent's history object over a migrated fragment, the history role
     moves to z: the parent's future originals belong to the old
     contents. *)
  List.iter
    (fun f ->
      if f.f_off < off + size && off < f.f_off + f.f_size then begin
        let lo = max f.f_off off and hi = min (f.f_off + f.f_size) (off + size) in
        Parents.insert z
          {
            f_off = lo;
            f_size = hi - lo;
            f_parent = f.f_parent;
            f_parent_off = f.f_parent_off + (lo - f.f_off);
            f_policy = f.f_policy;
          };
        match f.f_parent.c_history with
        | Some h when h == cache -> f.f_parent.c_history <- Some z
        | Some _ | None -> ()
      end)
    cache.c_parents;
  (* Redirect children's fragments over the range to z. *)
  List.iter
    (fun (child : cache) ->
      let changed = ref false in
      child.c_parents <-
        List.concat_map
          (fun f ->
            if not (f.f_parent == cache) then [ f ]
            else
              match child_overlap f ~off ~size with
              | None -> [ f ]
              | Some (c_lo, c_size) ->
                changed := true;
                let pieces = Parents.subtract f ~off:c_lo ~size:c_size in
                {
                  f_off = c_lo;
                  f_size = c_size;
                  f_parent = z;
                  f_parent_off = f.f_parent_off + (c_lo - f.f_off);
                  f_policy = f.f_policy;
                }
                :: pieces)
          child.c_parents;
      if !changed then begin
        child.c_parents <-
          List.sort (fun a b -> compare a.f_off b.f_off) child.c_parents;
        if not (List.memq child z.c_children) then
          z.c_children <- child :: z.c_children
      end)
    cache.c_children;
  (* Children fully redirected to z stop being our children. *)
  List.iter
    (fun (child : cache) ->
      if not (List.exists (fun f -> f.f_parent == cache) child.c_parents) then begin
        cache.c_children <-
          List.filter (fun c -> not (c == child)) cache.c_children;
        History.child_detached cache child
      end)
    cache.c_children;
  List.iter (fun (p : page) -> p.p_wire_count <- p.p_wire_count - 1) !pinned;
  z

(* The purged range's contents change: every MMU translation of the
   window — including borrowed read mappings installed through
   per-page stubs, which no page descriptor of this cache records —
   must be invalidated so the next access faults onto the new
   contents. *)
let[@chorus.spanned
     "runs under purge_range, whose callers (copy, move) open the span"] invalidate_window
    pvm (cache : cache) ~off ~size =
  note_structure pvm;
  let ps = page_size pvm in
  List.iter
    (fun (region : region) ->
      let lo = max off region.r_offset
      and hi = min (off + size) (region.r_offset + region.r_size) in
      if lo < hi then begin
        let vpn0 = (region.r_addr + (lo - region.r_offset)) / ps in
        let n = (hi - lo + ps - 1) / ps in
        for k = 0 to n - 1 do
          let vpn = vpn0 + k in
          match Hw.Mmu.query region.r_context.ctx_space ~vpn with
          | Some (frame, _) ->
            (match Pmap.page_at_frame pvm frame with
            | Some page -> Pmap.drop_mapping page region ~vpn
            | None -> ());
            charge pvm Hw.Cost.Invalidate_page;
            Hw.Mmu.unmap region.r_context.ctx_space ~vpn
          | None -> ()
        done
      end)
    cache.c_mappings

let purge_range pvm (cache : cache) ~off ~size =
  if size > 0 then begin
    note_structure pvm;
    invalidate_window pvm cache ~off ~size;
    (* Drop the range's pages, materialising stubs that read through
       individual pages.  Materialisation can evict pages and pull
       them back in behind the iteration, so loop until the range is
       really empty. *)
    let rec drain_pages budget =
      if budget = 0 then failwith "purge_range: pages not draining";
      match own_pages_in_range cache ~off ~size with
      | [] -> ()
      | pages ->
        List.iter
          (fun (p : page) ->
            if p.p_alive then begin
              if p.p_cow_stubs <> [] then
                Pervpage.with_wired p (fun () ->
                    Pervpage.flush_stubs pvm p);
              if p.p_alive then Install.remove_page pvm p ~free_frame:true
            end)
          pages;
        drain_pages (budget - 1)
    in
    if range_has_readers pvm cache ~off ~size then
      ignore (split_to_zombie pvm cache ~off ~size)
    else
      (* Nothing reads the old contents through the cache: drop them. *)
      drain_pages 64;
    (* Draining above may have evicted in-range pages, retargeting
       their threaded stubs into pending ones keyed on this cache;
       those still denote the old contents and must be materialised
       (from swap) before we forget them.  Materialising a pending
       stub pulls its source value back into this very range, so each
       round is followed by another page drain — otherwise the stale
       page stays behind and the caller's next insert at its offset
       silently orphans it (the descriptor lingers on [c_pages] with
       no global-map entry, its frame held forever). *)
    let offsets = page_offsets pvm ~off ~size in
    let rec drain_pending budget =
      if budget = 0 then failwith "purge_range: pending stubs not draining";
      let found =
        List.exists
          (fun o ->
            note_frag pvm cache ~off:o;
            Shard_map.mem pvm.stub_sources (cache.c_id, o))
          offsets
      in
      if found then begin
        List.iter (fun o -> Pervpage.materialize_pending pvm cache ~off:o) offsets;
        drain_pages 64;
        drain_pending (budget - 1)
      end
    in
    drain_pending 64;
    (* Destination-side stubs left in the range die with the old
       contents (the zombie path migrated the ones that mattered), and
       swapped-out old contents are forgotten. *)
    List.iter
      (fun o ->
        Hashtbl.remove cache.c_backed_offs o;
        match Global_map.wait_not_in_transit pvm cache ~off:o with
        | Some (Cow_stub s) -> Pervpage.kill pvm s
        | _ -> ())
      offsets;
    let parents_before =
      List.map (fun f -> f.f_parent) cache.c_parents
      |> List.fold_left (fun acc p -> if List.memq p acc then acc else p :: acc) []
    in
    Parents.remove_range cache ~off ~size;
    detach_unreferenced pvm cache ~parents_before
  end

(* --- Explicit data transfer (Table 1) ----------------------------- *)

let per_page_limit_pages = 8 (* 64 KB with 8 KB pages: the IPC slot size *)

(* Copy [size] bytes eagerly through real memory, honouring page
   boundaries on both sides; works for any (mis)alignment. *)
let[@chorus.spanned "runs under the copy/move span of its callers"] eager_copy
    pvm ~(src : cache) ~src_off ~(dst : cache) ~dst_off ~size =
  let ps = page_size pvm in
  let rec go copied =
    if copied < size then begin
      let s = src_off + copied and d = dst_off + copied in
      let s_page = page_align_down pvm s and d_page = page_align_down pvm d in
      let chunk =
        min (size - copied) (min (s_page + ps - s) (d_page + ps - d))
      in
      let dp = Fault.own_writable_page pvm dst ~off:d_page in
      (* [dp] stays pinned while the source lookup may allocate. *)
      Pervpage.with_wired dp (fun () ->
          match Value.source_value pvm src ~off:s_page with
          | `Page sp ->
            Pervpage.with_wired sp (fun () ->
                Bytes.blit sp.p_frame.Hw.Phys_mem.bytes (s - s_page)
                  dp.p_frame.Hw.Phys_mem.bytes (d - d_page) chunk)
          | `Zero ->
            Bytes.fill dp.p_frame.Hw.Phys_mem.bytes (d - d_page) chunk '\000');
      charge_span pvm Hw.Cost.Bcopy_page (pvm.cost.t_bcopy_page * chunk / ps);
      bump pvm.stats.sc_eager_pages;
      go (copied + chunk)
    end
  in
  go 0

let aligned3 pvm a b c =
  is_page_aligned pvm a && is_page_aligned pvm b && is_page_aligned pvm c

let ranges_overlap ~a_off ~b_off ~size = abs (a_off - b_off) < size

(* cache.copy (Table 1): copy data from a source cache to a
   destination cache.  Auto strategy follows §4.2/§4.3: history
   objects for large copies, per-virtual-page stubs for small ones,
   eager transfer when alignment forbids page tricks. *)
let copy pvm ?(strategy = `Auto) ?(policy = `Copy_on_write) ~(src : cache)
    ~src_off ~(dst : cache) ~dst_off ~size () =
  check_cache_alive src;
  check_cache_alive dst;
  if size < 0 then invalid_arg "copy: negative size";
  if src == dst && ranges_overlap ~a_off:src_off ~b_off:dst_off ~size then
    invalid_arg "copy: overlapping ranges within one cache";
  if size > 0 then begin
    let tr = Hw.Engine.tracer pvm.engine in
    let traced = Obs.Trace.enabled tr in
    if traced then Obs.Trace.span_begin tr ~cat:"vm" "copy";
    let chosen_name = ref "?" in
    Fun.protect
      ~finally:(fun () ->
        if traced then
          Obs.Trace.span_end tr
            ~args:
              [
                ("src", Obs.Trace.Int src.c_id);
                ("dst", Obs.Trace.Int dst.c_id);
                ("size", Obs.Trace.Int size);
                ("strategy", Obs.Trace.Str !chosen_name);
              ])
    @@ fun () ->
    let aligned = aligned3 pvm src_off dst_off size in
    let chosen =
      match strategy with
      | `Auto ->
        if not aligned then `Eager
        else if size <= per_page_limit_pages * page_size pvm then `Per_page
        else `History
      | (`Eager | `History | `Per_page) as s ->
        if (not aligned) && s <> `Eager then
          invalid_arg "copy: deferred strategies need page alignment";
        s
    in
    (* Copying onto one of the source's own ancestors would close a
       cycle in the copy graph (lookups could loop; hidden history
       nodes would keep each other alive).  Unix workloads never do
       this; fall back to an eager copy when they would. *)
    let chosen =
      if chosen <> `Eager && History.reachable pvm ~from:src dst then `Eager
      else chosen
    in
    chosen_name :=
      (match chosen with
      | `Eager -> "eager"
      | `Per_page -> "per-page"
      | `History -> "history");
    match chosen with
    | `Eager -> eager_copy pvm ~src ~src_off ~dst ~dst_off ~size
    | `Per_page ->
      purge_range pvm dst ~off:dst_off ~size;
      Pervpage.setup_copy pvm ~src ~src_off ~dst ~dst_off ~size
    | `History ->
      purge_range pvm dst ~off:dst_off ~size;
      History.record_copy pvm ~src ~src_off ~dst ~dst_off ~size ~policy
  end

(* cache.move (Table 1): like copy but the source contents become
   undefined, letting resident pages move by frame reassignment
   whenever alignment allows. *)
let move pvm ~(src : cache) ~src_off ~(dst : cache) ~dst_off ~size () =
  check_cache_alive src;
  check_cache_alive dst;
  if src == dst && ranges_overlap ~a_off:src_off ~b_off:dst_off ~size then
    invalid_arg "move: overlapping ranges within one cache";
  if size > 0 then
    spanned pvm "move" @@ fun () ->
    if aligned3 pvm src_off dst_off size then begin
      purge_range pvm dst ~off:dst_off ~size;
      List.iter
        (fun o ->
          let d_off = dst_off + (o - src_off) in
          match Global_map.wait_not_in_transit pvm src ~off:o with
          | Some (Resident p)
            when p.p_cow_stubs = [] && not p.p_cow_protected ->
            charge pvm Hw.Cost.Mmu_map;
            Install.reassign_page pvm p dst ~dst_off:d_off;
            p.p_dirty <- true
          | Some (Cow_stub s) when not (History.is_covered src ~off:o) ->
            (* a still-deferred value moves by re-targeting the stub —
               unless a history child snapshots the source, in which
               case the stub must stay (the fallback below copies) *)
            Global_map.remove pvm src ~off:o;
            s.cs_cache <- dst;
            s.cs_offset <- d_off;
            charge pvm Hw.Cost.Stub_insert;
            Global_map.set pvm dst ~off:d_off (Cow_stub s);
            bump pvm.stats.sc_moved_pages
          | Some _ | None -> (
            (* Data not movable by reassignment: transfer its value and
               leave the source undefined (it keeps its old page, which
               is allowed). *)
            match Value.source_value pvm src ~off:o with
            | `Page sp ->
              Pervpage.with_wired sp (fun () ->
                  let dp = Fault.own_writable_page pvm dst ~off:d_off in
                  charge pvm Hw.Cost.Bcopy_page;
                  Hw.Phys_mem.bcopy ~src:sp.p_frame ~dst:dp.p_frame);
              bump pvm.stats.sc_eager_pages
            | `Zero -> ()))
        (page_offsets pvm ~off:src_off ~size)
    end
    else begin
      eager_copy pvm ~src ~src_off ~dst ~dst_off ~size
    end

(* --- Cache management (Table 4) ----------------------------------- *)

(* fillUp: provide data to the cache (performed by segment managers,
   and by the PVM itself while resolving pullIn). *)
let fill_up pvm (cache : cache) ~offset bytes =
  check_cache_alive cache;
  (* For an anonymous cache the data exists nowhere else, so it must
     be considered modified; for a segment-backed cache the segment
     manager is providing authoritative (clean) data. *)
  Value.deliver pvm cache ~offset bytes ~prot:Hw.Prot.read_write
    ~dirty:cache.c_anonymous

(* Explicit write access through the cache (the read/write half of the
   unified segment interface, §3.2): byte-granular, resolving deferred
   state exactly like a mapped store would. *)
let write_through pvm (cache : cache) ~offset bytes =
  check_cache_alive cache;
  spanned pvm "writeThrough" @@ fun () ->
  let ps = page_size pvm in
  let len = Bytes.length bytes in
  let rec go done_ =
    if done_ < len then begin
      let o = offset + done_ in
      let o_page = page_align_down pvm o in
      let chunk = min (len - done_) (o_page + ps - o) in
      let p = Fault.own_writable_page pvm cache ~off:o_page in
      Pervpage.with_wired p (fun () ->
          Bytes.blit bytes done_ p.p_frame.Hw.Phys_mem.bytes (o - o_page)
            chunk);
      charge_span pvm Hw.Cost.Bcopy_page (pvm.cost.t_bcopy_page * chunk / ps);
      go (done_ + chunk)
    end
  in
  go 0

(* copyBack: read the cache's current logical contents. *)
let copy_back pvm (cache : cache) ~offset ~size =
  check_cache_alive cache;
  spanned pvm "copyBack" @@ fun () ->
  let ps = page_size pvm in
  let out = Bytes.create size in
  let rec go done_ =
    if done_ < size then begin
      let o = offset + done_ in
      let o_page = page_align_down pvm o in
      let chunk = min (size - done_) (o_page + ps - o) in
      (match Value.source_value pvm cache ~off:o_page with
      | `Page p ->
        Bytes.blit p.p_frame.Hw.Phys_mem.bytes (o - o_page) out done_ chunk
      | `Zero -> Bytes.fill out done_ chunk '\000');
      charge_span pvm Hw.Cost.Bcopy_page (pvm.cost.t_bcopy_page * chunk / ps);
      go (done_ + chunk)
    end
  in
  go 0;
  out

(* moveBack: copyBack, then drop the cache's own pages in the range
   (used while handling pushOut to avoid double buffering). *)
let move_back pvm (cache : cache) ~offset ~size =
  let out = copy_back pvm cache ~offset ~size in
  List.iter
    (fun (p : page) ->
      if p.p_cow_stubs <> [] then
        Pervpage.with_wired p (fun () -> Pervpage.flush_stubs pvm p);
      if p.p_alive && not p.p_cow_protected then
        Install.remove_page pvm p ~free_frame:true)
    (own_pages_in_range cache ~off:offset ~size);
  out

(* sync: save modified data to the segment, keeping it cached. *)
let sync pvm (cache : cache) ~offset ~size =
  check_cache_alive cache;
  List.iter
    (fun (p : page) -> if p.p_dirty then Pager.push_out pvm p)
    (own_pages_in_range cache ~off:offset ~size)

(* sync the whole cache, whatever its extent. *)
let sync_all pvm (cache : cache) =
  check_cache_alive cache;
  List.iter
    (fun (p : page) -> if p.p_dirty then Pager.push_out pvm p)
    cache.c_pages

(* flush: save modified data and release the real memory. *)
let flush pvm (cache : cache) ~offset ~size =
  check_cache_alive cache;
  List.iter
    (fun (p : page) -> if Pager.can_evict pvm p then Pager.evict pvm p)
    (own_pages_in_range cache ~off:offset ~size)

(* invalidate: discard cached data without saving it; the segment is
   authoritative (used by coherence protocols).  Stubs reading through
   the discarded pages are materialised first. *)
let invalidate pvm (cache : cache) ~offset ~size =
  check_cache_alive cache;
  List.iter
    (fun (p : page) ->
      if p.p_cow_stubs <> [] then
        Pervpage.with_wired p (fun () -> Pervpage.flush_stubs pvm p);
      if p.p_alive && p.p_wire_count = 0 then
        Install.remove_page pvm p ~free_frame:true)
    (own_pages_in_range cache ~off:offset ~size)

(* setProtection on cached data: caps the access mode of the resident
   pages; a later write re-requests access through getWriteAccess. *)
let set_protection pvm (cache : cache) ~offset ~size prot =
  check_cache_alive cache;
  List.iter
    (fun (p : page) ->
      p.p_pulled_prot <- prot;
      Pmap.refresh_prot pvm p)
    (own_pages_in_range cache ~off:offset ~size)

(* The reaper's local checks cannot collect {e cycles} of hidden
   caches (a zombie whose pages feed stubs destined to another zombie
   that is its own transitive child).  Mark from the user-visible
   roots through fragment-parent and stub-source edges, then sweep the
   unreachable zombies wholesale. *)
let[@chorus.noted
     "global mark-and-sweep over every map row and pending-stub row; \
      key-set footprints cannot express a whole-table read — see DESIGN.md \
      §4f"]
   [@chorus.guarded
     "the sweep runs at pool quiescence only: no parallel slice is live \
      to race the topology edits"] sweep_zombies pvm =
  note_structure pvm;
  let marked = Hashtbl.create 32 in
  (* destination cache id -> source caches its live stubs read *)
  let stub_edges = Hashtbl.create 32 in
  Shard_map.iter
    (fun _ entry ->
      match entry with
      | Cow_stub s when s.cs_alive ->
        let source =
          match s.cs_source with
          | Src_page p -> p.p_cache
          | Src_cache (c, _) -> c
        in
        Hashtbl.add stub_edges s.cs_cache.c_id source
      | _ -> ())
    pvm.gmap;
  let rec mark (c : cache) =
    if not (Hashtbl.mem marked c.c_id) then begin
      Hashtbl.replace marked c.c_id ();
      List.iter (fun f -> mark f.f_parent) c.c_parents;
      List.iter mark (Hashtbl.find_all stub_edges c.c_id)
    end
  in
  List.iter (fun c -> if not c.c_zombie then mark c) pvm.caches;
  let dead =
    List.filter
      (fun c -> c.c_zombie && not (Hashtbl.mem marked c.c_id))
      pvm.caches
  in
  if dead <> [] then begin
    (* every stub destined to a dead cache reads a dead source (live
       destinations would have marked their sources): discard them *)
    Hashtbl.iter
      (fun _ entry ->
        match entry with
        | Cow_stub s when s.cs_alive && List.memq s.cs_cache dead ->
          Pervpage.kill pvm s
        | _ -> ())
      (Shard_map.snapshot pvm.gmap);
    Hashtbl.iter
      (fun _ stubs ->
        List.iter
          (fun s ->
            if s.cs_alive && List.memq s.cs_cache dead then
              Pervpage.kill pvm s)
          stubs)
      (Shard_map.snapshot pvm.stub_sources);
    List.iter
      (fun (c : cache) ->
        List.iter
          (fun (p : page) ->
            assert (p.p_cow_stubs = []);
            if p.p_alive then Install.remove_page pvm p ~free_frame:true)
          c.c_pages;
        List.iter
          (fun f ->
            if not (List.memq f.f_parent dead) then
              History.child_detached f.f_parent c)
          c.c_parents;
        Parents.detach_all c;
        c.c_children <- [];
        c.c_history <- None;
        c.c_alive <- false;
        c.c_zombie <- false;
        note_structure pvm;
        with_mm pvm (fun () ->
            pvm.caches <- List.filter (fun x -> not (x == c)) pvm.caches))
      dead
  end

(* cacheDestroy: drop the binding.  If descendants still read through
   this cache it lingers as a hidden history node and is collected
   when the last child detaches (§4.2.5 discussion); garbage cycles of
   hidden nodes are swept afterwards. *)
let destroy pvm (cache : cache) =
  check_cache_alive cache;
  note_structure pvm;
  if cache.c_mappings <> [] then
    invalid_arg "cacheDestroy: regions still map this cache";
  if cache.c_children = [] then teardown pvm cache
  else begin
    cache.c_zombie <- true;
    cache.c_is_history <- true
  end;
  sweep_zombies pvm

let stats_of pvm = snapshot_stats pvm.stats
let mapping_count (cache : cache) =
  note_structure ~write:false cache.c_pvm;
  List.length cache.c_mappings
let is_alive (cache : cache) = cache.c_alive

(* Stub-death reaper: a hidden history cache whose last reader was a
   per-page stub (not a fragment child) is collected when that stub
   dies.  Installed on every PVM instance at creation. *)
let install_reaper pvm =
  pvm.zombie_reaper <-
    Some
      (fun cache ->
        if unread_zombie ~write:true pvm cache then teardown pvm cache);
  pvm
