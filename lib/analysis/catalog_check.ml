open Lpp_stats

(* Findings of one family are capped: a thoroughly corrupted catalog would
   otherwise produce one diagnostic per table entry. *)
let cap = 12

let sol = function None -> "*" | Some l -> string_of_int l

let run cat =
  let acc = ref [] in
  let counts = Hashtbl.create 16 in
  let add sev ~code ~loc msg =
    let n = Option.value ~default:0 (Hashtbl.find_opt counts code) in
    Hashtbl.replace counts code (n + 1);
    if n < cap then acc := Diagnostic.make sev ~code ~loc msg :: !acc
  in
  let error = add Diagnostic.Error and warn = add Diagnostic.Warning in
  let labels = Catalog.label_count cat in
  let types = Catalog.type_count cat in
  let nc_star = Catalog.nc_star cat in
  (* --- node counts --- *)
  if nc_star < 0 then
    error ~code:"LPP-C001" ~loc:(Stats "nc")
      (Printf.sprintf "NC(*) is negative: %d" nc_star);
  for l = 0 to labels - 1 do
    let n = Catalog.nc cat l in
    if n < 0 then
      error ~code:"LPP-C001" ~loc:(Stats "nc")
        (Printf.sprintf "NC(%d) is negative: %d" l n)
    else if n > nc_star then
      error ~code:"LPP-C001" ~loc:(Stats "nc")
        (Printf.sprintf "NC(%d) = %d exceeds NC(*) = %d" l n nc_star)
  done;
  (* --- relationship counts: negativity and wildcard dominance --- *)
  let rc_out ~src ~typ ~dst =
    Catalog.rc cat ~dir:Lpp_pgraph.Direction.Out ~node:src
      ~types:(match typ with None -> [||] | Some ty -> [| ty |])
      ~other:dst
  in
  Catalog.iter_triples cat (fun ~src ~typ ~dst ~count ->
      if count < 0 then
        error ~code:"LPP-C004" ~loc:(Stats "rc")
          (Printf.sprintf "rc(%s,%s,%s) is negative: %d" (sol src) (sol typ)
             (sol dst) count);
      let dominated ~by:(s, ty, d) =
        let sup = rc_out ~src:s ~typ:ty ~dst:d in
        if count > sup then
          error ~code:"LPP-C002" ~loc:(Stats "rc")
            (Printf.sprintf
               "wildcard dominance violated: rc(%s,%s,%s) = %d > rc(%s,%s,%s) \
                = %d"
               (sol src) (sol typ) (sol dst) count (sol s) (sol ty) (sol d) sup)
      in
      if src <> None then dominated ~by:(None, typ, dst);
      if dst <> None then dominated ~by:(src, typ, None);
      if typ <> None then dominated ~by:(src, None, dst));
  (* --- cross-table totals --- *)
  let rel_total = Catalog.rel_total cat in
  let type_sum = ref 0 in
  for ty = 0 to types - 1 do
    type_sum := !type_sum + Catalog.rel_type_total cat ty
  done;
  if !type_sum <> rel_total then
    error ~code:"LPP-C003" ~loc:(Stats "totals")
      (Printf.sprintf "per-type totals sum to %d but the relationship total \
                       is %d" !type_sum rel_total);
  let wild_all = rc_out ~src:None ~typ:None ~dst:None in
  if wild_all <> rel_total then
    error ~code:"LPP-C003" ~loc:(Stats "totals")
      (Printf.sprintf "rc(*,*,*) = %d but the relationship total is %d"
         wild_all rel_total);
  for ty = 0 to types - 1 do
    let w = rc_out ~src:None ~typ:(Some ty) ~dst:None in
    let t = Catalog.rel_type_total cat ty in
    if w <> t then
      error ~code:"LPP-C003" ~loc:(Stats "totals")
        (Printf.sprintf "rc(*,%d,*) = %d but the type total is %d" ty w t)
  done;
  (* --- label hierarchy: acyclicity and count monotonicity --- *)
  let h = Catalog.hierarchy cat in
  let hl = Label_hierarchy.label_count h in
  if hl <> labels then
    warn ~code:"LPP-C008" ~loc:(Stats "hierarchy")
      (Printf.sprintf "hierarchy covers %d labels, catalog has %d" hl labels);
  for a = 0 to hl - 1 do
    for b = a + 1 to hl - 1 do
      if
        Label_hierarchy.is_strict_sublabel h a b
        && Label_hierarchy.is_strict_sublabel h b a
      then
        error ~code:"LPP-C005" ~loc:(Stats "hierarchy")
          (Printf.sprintf "hierarchy cycle: labels %d and %d are strict \
                           sublabels of each other" a b)
    done
  done;
  let n = min hl labels in
  for a = 0 to n - 1 do
    for b = 0 to n - 1 do
      if
        a <> b
        && Label_hierarchy.is_strict_sublabel h a b
        && Catalog.nc cat a > Catalog.nc cat b
      then
        error ~code:"LPP-C006" ~loc:(Stats "hierarchy")
          (Printf.sprintf
             "label %d is a sublabel of %d but NC(%d) = %d > NC(%d) = %d" a b a
             (Catalog.nc cat a) b (Catalog.nc cat b))
    done
  done;
  (* --- partition well-formedness --- *)
  let d = Catalog.partition cat in
  let dl = Label_partition.label_count d in
  if dl <> labels then
    warn ~code:"LPP-C008" ~loc:(Stats "partition")
      (Printf.sprintf "partition covers %d labels, catalog has %d" dl labels);
  let seen = Array.make (max dl 1) (-1) in
  Array.iteri
    (fun c members ->
      Array.iter
        (fun l ->
          if l < 0 || l >= dl then
            error ~code:"LPP-C007" ~loc:(Stats "partition")
              (Printf.sprintf "cluster %d contains out-of-range label %d" c l)
          else begin
            if seen.(l) >= 0 then
              error ~code:"LPP-C007" ~loc:(Stats "partition")
                (Printf.sprintf "label %d appears in clusters %d and %d" l
                   seen.(l) c)
            else seen.(l) <- c;
            if Label_partition.cluster_of d l <> c then
              error ~code:"LPP-C007" ~loc:(Stats "partition")
                (Printf.sprintf
                   "cluster_of %d = %d but label %d is listed in cluster %d" l
                   (Label_partition.cluster_of d l)
                   l c)
          end)
        members)
    (Label_partition.clusters d);
  for l = 0 to dl - 1 do
    if seen.(l) < 0 then
      error ~code:"LPP-C007" ~loc:(Stats "partition")
        (Printf.sprintf "label %d belongs to no cluster" l)
  done;
  let out = Diagnostic.sort (List.rev !acc) in
  let suppressed = ref [] in
  Hashtbl.iter
    (fun code n -> if n > cap then suppressed := (code, n - cap) :: !suppressed)
    counts;
  out
  @ List.map
      (fun (code, extra) ->
        Diagnostic.makef Hint ~code:"LPP-C000" ~loc:Sequence
          "%d further %s findings suppressed" extra code)
      (List.sort compare !suppressed)
