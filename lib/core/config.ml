type property_mode = Use_stats | Fixed of float

type t = {
  advanced_rc : bool;
  use_hierarchy : bool;
  use_partition : bool;
  property_mode : property_mode;
  use_triangles : bool;
}

let s_l =
  {
    advanced_rc = false;
    use_hierarchy = false;
    use_partition = false;
    property_mode = Use_stats;
    use_triangles = false;
  }

let a_l = { s_l with advanced_rc = true }

let a_lh = { a_l with use_hierarchy = true }

let a_ld = { a_l with use_partition = true }

let a_lhd = { a_l with use_hierarchy = true; use_partition = true }

let a_lhd_10pct = { a_lhd with property_mode = Fixed 0.10 }

let a_lhdt = { a_lhd with use_triangles = true }

let name t =
  let base =
    Printf.sprintf "%s-L%s%s%s"
      (if t.advanced_rc then "A" else "S")
      (if t.use_hierarchy then "H" else "")
      (if t.use_partition then "D" else "")
      (if t.use_triangles then "T" else "")
  in
  match t.property_mode with
  | Use_stats -> base
  | Fixed f -> Printf.sprintf "%s-%.0f%%" base (100.0 *. f)

let all = [ s_l; a_l; a_lh; a_ld; a_lhd; a_lhd_10pct ]

let candidates = all @ [ a_lhdt ]

(* Accepts the canonical names case-insensitively, with '_' for '-' and the
   trailing "%" of "A-LHD-10%" optional — the spellings shells and JSON
   clients actually produce. Every accepted spelling is canonicalised once,
   here, so a lookup canonicalises only its argument. *)
let canon s =
  String.lowercase_ascii s |> String.map (function '_' | '%' -> '-' | c -> c)

let spellings =
  List.concat_map
    (fun c ->
      let n = canon (name c) in
      if String.ends_with ~suffix:"-" n then
        [ (n, c); (String.sub n 0 (String.length n - 1), c) ]
      else [ (n, c) ])
    candidates

let of_name s =
  match List.assoc_opt (canon s) spellings with
  | Some c -> Ok c
  | None ->
      Error
        (Printf.sprintf "unknown configuration %S (one of: %s)" s
           (String.concat ", " (List.map name candidates)))
