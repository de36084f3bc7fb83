(* Figure 3: history-object scenarios, rendered as trees.

   Replays the four sub-figures of the paper (§4.2, Figure 3) and
   prints the resulting history trees; page numbers with [*] are
   hardware read-protected frames (grey in the paper's figure). *)

open Util

let run () =
  in_sim (fun engine ->
      let pvm = Core.Pvm.create ~frames:512 ~cost:Hw.Cost.free ~engine () in
      let ctx = Core.Context.create pvm in
      let mk_mapped base =
        let cache = Core.Cache.create pvm () in
        let _r =
          Core.Region.create pvm ctx ~addr:base ~size:(5 * ps)
            ~prot:Hw.Prot.read_write cache ~offset:0
        in
        cache
      in
      let wr base page c =
        Core.Pvm.write pvm ctx ~addr:(base + (page * ps)) (Bytes.make ps c)
      in
      let copy src dst =
        Core.Cache.copy pvm ~strategy:`History ~src ~src_off:0 ~dst ~dst_off:0
          ~size:(5 * ps) ()
      in
      let show label cache =
        Printf.printf "%s\n%s\n" label
          (Format.asprintf "%a" Core.Pvm.pp_history_tree cache)
      in

      Printf.printf "\nFigure 3 -- history objects for copy-on-write\n";
      Printf.printf "(pages by index; * = read-protected frame)\n\n";

      (* 3.a: cpy1 is a COW of src; page 2 updated in src, page 3 in
         cpy1 *)
      let src = mk_mapped 0 and cpy1 = mk_mapped (1024 * ps) in
      List.iter (fun (p, c) -> wr 0 p c) [ (1, '1'); (2, '2'); (3, '3') ];
      copy src cpy1;
      wr 0 2 'X';
      wr (1024 * ps) 3 'Y';
      show "3.a  src copied once; src wrote page 2, cpy1 wrote page 3:" src;

      (* 3.b: then cpy1 is copied to copyOfCpy1 and writes page 3 *)
      let cpy1_of = mk_mapped (2048 * ps) in
      copy cpy1 cpy1_of;
      wr (1024 * ps) 3 'Z';
      show "3.b  cpy1 copied to copyOfCpy1; cpy1 wrote page 3 again:" src;

      (* 3.c: a second copy of src inserts a working history object *)
      let cpy2 = mk_mapped (3072 * ps) in
      copy src cpy2;
      wr 0 3 'S';
      show "3.c  second copy of src: working object w inserted:" src;

      (* 3.d: a third copy inserts another working object *)
      let cpy3 = mk_mapped (4096 * ps) in
      copy src cpy3;
      wr 0 1 'T';
      show "3.d  third copy of src: second working object:" src;

      match Check.Sanitizer.run pvm with
      | [] -> Printf.printf "history-tree invariants: OK\n"
      | errs ->
        Printf.printf "history-tree invariants: BROKEN: %s\n"
          (String.concat "; "
             (List.map (Format.asprintf "%a" Check.Sanitizer.pp_violation) errs)))
