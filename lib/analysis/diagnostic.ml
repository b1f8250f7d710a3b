type severity = Error | Warning | Hint

type location =
  | Op of int
  | Stats of string
  | Sequence
  | Src of { file : string; line : int }

type t = {
  severity : severity;
  code : string;
  loc : location;
  message : string;
}

let make severity ~code ~loc message = { severity; code; loc; message }

let makef severity ~code ~loc fmt =
  Format.kasprintf (fun message -> make severity ~code ~loc message) fmt

let severity_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Hint -> "hint"

let is_error d = d.severity = Error

let has_errors ds = List.exists is_error ds

let count sev ds =
  List.fold_left (fun acc d -> if d.severity = sev then acc + 1 else acc) 0 ds

let loc_rank = function Op i -> i | Stats _ | Sequence | Src _ -> max_int

(* Src diagnostics additionally order by (file, line); every other location
   compares equal here so the stable sort preserves incoming order. *)
let src_key = function Src { file; line } -> (file, line) | _ -> ("", 0)

let sort ds =
  List.stable_sort
    (fun a b ->
      match compare (loc_rank a.loc) (loc_rank b.loc) with
      | 0 -> compare (src_key a.loc) (src_key b.loc)
      | c -> c)
    ds

let pp_loc ppf = function
  | Op i -> Format.fprintf ppf "op %d" i
  | Stats s -> Format.fprintf ppf "stats:%s" s
  | Sequence -> Format.fprintf ppf "sequence"
  | Src { file; line } ->
      if line = 0 then Format.fprintf ppf "%s" file
      else Format.fprintf ppf "%s:%d" file line

let pp ppf d =
  Format.fprintf ppf "[%s] %s @@ %a: %s"
    (severity_string d.severity)
    d.code pp_loc d.loc d.message

let to_json d =
  let open Lpp_util.Json in
  let loc_fields =
    match d.loc with
    | Op i -> [ ("op", Int i) ]
    | Stats s -> [ ("stats", String s) ]
    | Sequence -> []
    | Src { file; line } -> [ ("file", String file); ("line", Int line) ]
  in
  Obj
    ([ ("severity", String (severity_string d.severity)); ("code", String d.code) ]
    @ loc_fields
    @ [ ("message", String d.message) ])
