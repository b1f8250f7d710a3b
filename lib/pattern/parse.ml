let max_unbounded_hops = 3

type parsed = { pattern : Pattern.t; var_names : string option array }

(* ---------------- lexer ---------------- *)

type token =
  | Lparen
  | Rparen
  | Lbracket
  | Rbracket
  | Lbrace
  | Rbrace
  | Colon
  | Comma
  | Pipe
  | Star
  | Dotdot
  | Dash
  | Arrow_out  (* "->" *)
  | Arrow_in  (* "<-" *)
  | Ident of string
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

exception Parse_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Parse_error s)) fmt

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_'

let is_digit c = c >= '0' && c <= '9'

let tokenize input =
  let n = String.length input in
  let tokens = ref [] in
  let push t = tokens := t :: !tokens in
  let i = ref 0 in
  while !i < n do
    let c = input.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = '(' then (push Lparen; incr i)
    else if c = ')' then (push Rparen; incr i)
    else if c = '[' then (push Lbracket; incr i)
    else if c = ']' then (push Rbracket; incr i)
    else if c = '{' then (push Lbrace; incr i)
    else if c = '}' then (push Rbrace; incr i)
    else if c = ':' then (push Colon; incr i)
    else if c = ',' then (push Comma; incr i)
    else if c = '|' then (push Pipe; incr i)
    else if c = '*' then (push Star; incr i)
    else if c = '.' && !i + 1 < n && input.[!i + 1] = '.' then begin
      push Dotdot;
      i := !i + 2
    end
    else if c = '<' && !i + 1 < n && input.[!i + 1] = '-' then begin
      push Arrow_in;
      i := !i + 2
    end
    else if c = '-' && !i + 1 < n && input.[!i + 1] = '>' then begin
      push Arrow_out;
      i := !i + 2
    end
    else if c = '-' && not (!i + 1 < n && is_digit input.[!i + 1]) then begin
      push Dash;
      incr i
    end
    else if c = '"' || c = '\'' then begin
      let quote = c in
      let start = !i + 1 in
      let j = ref start in
      while !j < n && input.[!j] <> quote do
        incr j
      done;
      if !j >= n then fail "unterminated string literal";
      push (Str (String.sub input start (!j - start)));
      i := !j + 1
    end
    else if is_digit c || c = '-' then begin
      (* a number; ".." terminates it so hop ranges like 1..3 lex correctly *)
      let start = !i in
      if c = '-' then incr i;
      while
        !i < n
        && (is_digit input.[!i]
           || (input.[!i] = '.' && not (!i + 1 < n && input.[!i + 1] = '.')))
      do
        incr i
      done;
      let lit = String.sub input start (!i - start) in
      if String.contains lit '.' then push (Float (float_of_string lit))
      else push (Int (int_of_string lit))
    end
    else if is_ident_char c then begin
      let start = !i in
      while !i < n && is_ident_char input.[!i] do
        incr i
      done;
      let word = String.sub input start (!i - start) in
      match String.lowercase_ascii word with
      | "true" -> push (Bool true)
      | "false" -> push (Bool false)
      | _ -> push (Ident word)
    end
    else fail "unexpected character %C at offset %d" c !i
  done;
  List.rev !tokens

(* ---------------- parser ---------------- *)

type state = { mutable toks : token list }

let peek st = match st.toks with [] -> None | t :: _ -> Some t

let advance st =
  match st.toks with [] -> fail "unexpected end of input" | _ :: rest -> st.toks <- rest

let expect st tok name =
  match st.toks with
  | t :: rest when t = tok -> st.toks <- rest
  | _ -> fail "expected %s" name

let accept st tok =
  match st.toks with
  | t :: rest when t = tok ->
      st.toks <- rest;
      true
  | _ -> false

let parse_value st =
  match peek st with
  | Some (Int i) ->
      advance st;
      Lpp_pgraph.Value.Int i
  | Some (Float f) ->
      advance st;
      Lpp_pgraph.Value.Float f
  | Some (Str s) ->
      advance st;
      Lpp_pgraph.Value.Str s
  | Some (Bool b) ->
      advance st;
      Lpp_pgraph.Value.Bool b
  | _ -> fail "expected a literal value"

let parse_props st =
  if not (accept st Lbrace) then []
  else begin
    let entries = ref [] in
    let rec entry () =
      match peek st with
      | Some (Ident key) ->
          advance st;
          let pred =
            if accept st Colon then Pattern.Eq (parse_value st)
            else Pattern.Exists
          in
          entries := (key, pred) :: !entries;
          if accept st Comma then entry ()
      | _ -> fail "expected a property key"
    in
    entry ();
    expect st Rbrace "'}'";
    List.rev !entries
  end

(* ( ident? (:Label)* props? ) *)
let parse_node st =
  expect st Lparen "'('";
  let name =
    match peek st with
    | Some (Ident id) ->
        advance st;
        Some id
    | _ -> None
  in
  let labels = ref [] in
  while accept st Colon do
    match peek st with
    | Some (Ident l) ->
        advance st;
        labels := l :: !labels
    | _ -> fail "expected a label name"
  done;
  let props = parse_props st in
  expect st Rparen "')'";
  (name, List.rev !labels, props)

let parse_hops st =
  if not (accept st Star) then None
  else begin
    match peek st with
    | Some (Int lo) ->
        advance st;
        if accept st Dotdot then begin
          match peek st with
          | Some (Int hi) ->
              advance st;
              Some (lo, hi)
          | _ -> Some (lo, max_unbounded_hops)
        end
        else Some (lo, lo)
    | _ -> Some (1, max_unbounded_hops)
  end

(* the bracket part: [ ident? type-alternatives? hops? props? ] *)
let parse_rel_body st =
  expect st Lbracket "'['";
  (* relationship identifiers are accepted and ignored (only node variables
     participate in cardinality estimation) *)
  (match peek st with Some (Ident _) -> advance st | _ -> ());
  let types = ref [] in
  if accept st Colon then begin
    let rec types_loop () =
      match peek st with
      | Some (Ident t) ->
          advance st;
          types := t :: !types;
          if accept st Pipe then types_loop ()
      | _ -> fail "expected a relationship type"
    in
    types_loop ()
  end;
  let hops = parse_hops st in
  let props = parse_props st in
  expect st Rbracket "']'";
  (List.rev !types, hops, props)

(* rel between two nodes; returns (types, hops, props, direction) where
   direction is `Out | `In | `Undirected relative to reading order *)
let parse_rel st =
  if accept st Arrow_in then begin
    (* <-[ ... ]- *)
    let body = parse_rel_body st in
    expect st Dash "'-'";
    (body, `In)
  end
  else begin
    expect st Dash "'-'";
    let body = parse_rel_body st in
    if accept st Arrow_out then (body, `Out)
    else begin
      expect st Dash "'-'";
      (body, `Undirected)
    end
  end

let looks_like_rel st =
  match peek st with Some (Dash | Arrow_in) -> true | _ -> false

let parse graph input =
  try
    let st = { toks = tokenize input } in
    (* accept and skip a leading MATCH keyword *)
    (match peek st with
    | Some (Ident kw) when String.lowercase_ascii kw = "match" -> advance st
    | _ -> ());
    let nodes = ref [] in
    let n_nodes = ref 0 in
    let names = Hashtbl.create 8 in
    let rels = ref [] in
    let node_index (name, labels, props) =
      match name with
      | Some id when Hashtbl.mem names id ->
          let idx = Hashtbl.find names id in
          if labels <> [] || props <> [] then
            fail "variable %s is redeclared with labels or properties" id;
          idx
      | _ ->
          let idx = !n_nodes in
          incr n_nodes;
          (match name with Some id -> Hashtbl.add names id idx | None -> ());
          nodes := (name, Pattern.node_spec ~labels ~props ()) :: !nodes;
          idx
    in
    let rec parse_path () =
      let left = ref (node_index (parse_node st)) in
      while looks_like_rel st do
        let (types, hops, props), dir = parse_rel st in
        let right = node_index (parse_node st) in
        let src, dst, directed =
          match dir with
          | `Out -> (!left, right, true)
          | `In -> (right, !left, true)
          | `Undirected -> (!left, right, false)
        in
        rels :=
          Pattern.rel_spec ~types ~directed ~rprops:props ?hops ~src ~dst ()
          :: !rels;
        left := right
      done;
      if accept st Comma then parse_path ()
    in
    parse_path ();
    (match st.toks with
    | [] -> ()
    | _ -> fail "trailing input after pattern");
    let node_specs = List.rev_map snd !nodes in
    let var_names = Array.of_list (List.rev_map fst !nodes) in
    let pattern = Pattern.of_spec graph node_specs (List.rev !rels) in
    Ok { pattern; var_names }
  with
  | Parse_error msg -> Error msg
  | Invalid_argument msg -> Error msg
