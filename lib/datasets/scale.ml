type t = Smoke | Default | Large

let to_string = function
  | Smoke -> "smoke"
  | Default -> "default"
  | Large -> "large"

let of_name s =
  match String.lowercase_ascii s with
  | "smoke" -> Ok Smoke
  | "default" -> Ok Default
  | "large" -> Ok Large
  | other ->
      Error (Printf.sprintf "unknown scale %S (smoke|default|large)" other)

let props = function Smoke | Default -> true | Large -> false

let sampled_truth = function Smoke | Default -> false | Large -> true

let snb_persons = function Smoke -> 120 | Default -> 500 | Large -> 160_000

let cineasts_movies = function
  | Smoke -> 250
  | Default -> 1_200
  | Large -> 900_000

let dbpedia_entities = function
  | Smoke -> 2_000
  | Default -> 10_000
  | Large -> 2_600_000

let dbpedia_classes = function Smoke -> 40 | Default | Large -> 140

let dbpedia_rel_kinds = function Smoke -> 25 | Default | Large -> 90

let build t ~name ~seed =
  let props = props t in
  let generate =
    match String.lowercase_ascii name with
    | "snb" ->
        Some (fun () -> Snb_gen.generate ~persons:(snb_persons t) ~props ~seed ())
    | "cineasts" ->
        Some
          (fun () ->
            Cineasts_gen.generate ~movies:(cineasts_movies t) ~props ~seed ())
    | "dbpedia" ->
        Some
          (fun () ->
            Dbpedia_gen.generate ~entities:(dbpedia_entities t)
              ~classes:(dbpedia_classes t) ~rel_kinds:(dbpedia_rel_kinds t)
              ~props ~seed ())
    | _ -> None
  in
  (* the span holds [graph.freeze] and [dataset.build]; its remainder is
     the generator's own draws and builder calls *)
  Option.map (Lpp_obs.Trace.with_span ~cat:"dataset" "dataset.generate") generate
