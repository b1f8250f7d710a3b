open Lpp_pgraph
open Lpp_util

let hierarchy_pairs =
  [
    ("Post", "Message");
    ("Comment", "Message");
    ("City", "Place");
    ("Country", "Place");
    ("Continent", "Place");
    ("University", "Organisation");
    ("Company", "Organisation");
  ]

let continents =
  [| "Europe"; "Asia"; "Africa"; "America"; "Oceania"; "Antarctica" |]

let browsers = [| "Firefox"; "Chrome"; "Safari"; "Edge"; "Opera" |]

let genders = [| "male"; "female" |]

let languages = [| "en"; "de"; "fr"; "es"; "zh"; "ar" |]

let first_names =
  [| "Jan"; "Maria"; "Chen"; "Ali"; "Anna"; "Ivan"; "Jose"; "Kim"; "Lena";
     "Omar"; "Petra"; "Sven"; "Tariq"; "Yuki"; "Zoe"; "Lars" |]

let last_names =
  [| "Smith"; "Mueller"; "Garcia"; "Wang"; "Kumar"; "Sato"; "Silva"; "Novak";
     "Khan"; "Olsen"; "Rossi"; "Dubois"; "Kowalski"; "Haddad"; "Brown"; "Berg" |]

let str s = Value.Str s

let int i = Value.Int i

(* Timestamps within the benchmark's 2010-2013 window, in epoch days. *)
let creation_date rng = int (14610 + Rng.int rng 1200)

let generate ?(persons = 900) ?(props = true) ~seed () =
  let rng = Rng.create seed in
  let b = Graph_builder.create () in
  (* [pp] drops properties at the Large tier. Its argument is evaluated
     either way, so the RNG stream — and hence the relationship structure —
     is identical with and without properties. OCaml evaluates a call's
     arguments right to left: where both [~props] and [~dst] draw, the
     properties draw first, and the calls below keep that shape. *)
  let with_props = props in
  let pp l = if with_props then l else [] in
  (* Zipf samplers are made once per fixed (n, s); only KNOWS, whose rank
     count grows with every person, draws through [Rng.zipf]. *)
  let draw z = Rng.Zipf.draw rng z in
  (* Label lists and types are resolved to their ids at their first use
     ({!Kind}); an entity without properties is then added by id. *)
  let node = Kind.node b and rel = Kind.rel b in
  let add_node = Kind.add_node and add_rel = Kind.add_rel in
  let is_part_of = rel "IS_PART_OF"
  and is_located_in = rel "IS_LOCATED_IN"
  and has_tag = rel "HAS_TAG"
  and has_creator = rel "HAS_CREATOR" in
  (* --- places ------------------------------------------------------- *)
  let continent = node [ "Place"; "Continent" ] in
  let continent_ids =
    Array.map
      (fun name -> add_node continent ~props:(pp [ ("name", str name) ]))
      continents
  in
  let n_countries = 28 in
  let continent_zipf = Rng.Zipf.make ~n:(Array.length continents) ~s:0.8 in
  let country = node [ "Place"; "Country" ] in
  let country_ids =
    Array.init n_countries (fun i ->
        let nd =
          add_node country
            ~props:(pp [ ("name", str (Printf.sprintf "Country%d" i)) ])
        in
        let cont = continent_ids.(draw continent_zipf) in
        ignore (add_rel is_part_of ~src:nd ~dst:cont ~props:[]);
        nd)
  in
  let n_cities = 170 in
  let country_zipf = Rng.Zipf.make ~n:n_countries ~s:0.9 in
  let city = node [ "Place"; "City" ] in
  let city_ids =
    Array.init n_cities (fun i ->
        let nd =
          add_node city ~props:(pp [ ("name", str (Printf.sprintf "City%d" i)) ])
        in
        let country = country_ids.(draw country_zipf) in
        ignore (add_rel is_part_of ~src:nd ~dst:country ~props:[]);
        nd)
  in
  (* --- organisations ------------------------------------------------ *)
  let n_universities = 45 in
  let university = node [ "Organisation"; "University" ] in
  let university_ids =
    Array.init n_universities (fun i ->
        let nd =
          add_node university
            ~props:
              (pp
                 [ ("name", str (Printf.sprintf "University%d" i));
                   ("url", str (Printf.sprintf "http://uni%d.example.org" i)) ])
        in
        ignore
          (add_rel is_located_in ~src:nd ~dst:(Rng.pick rng city_ids) ~props:[]);
        nd)
  in
  let n_companies = 80 in
  let company = node [ "Organisation"; "Company" ] in
  let company_ids =
    Array.init n_companies (fun i ->
        let nd =
          add_node company
            ~props:
              (pp
                 [ ("name", str (Printf.sprintf "Company%d" i));
                   ("url",
                    str (Printf.sprintf "http://company%d.example.com" i)) ])
        in
        ignore
          (add_rel is_located_in ~src:nd ~dst:(Rng.pick rng country_ids)
             ~props:[]);
        nd)
  in
  (* --- tags ---------------------------------------------------------- *)
  let n_tagclasses = 20 in
  let tagclass = node [ "TagClass" ] in
  let tagclass_ids =
    Array.init n_tagclasses (fun i ->
        add_node tagclass
          ~props:(pp [ ("name", str (Printf.sprintf "TagClass%d" i)) ]))
  in
  let is_subclass_of = rel "IS_SUBCLASS_OF" in
  Array.iteri
    (fun i nd ->
      if i > 0 then begin
        (* a tree over tag classes, rooted at TagClass0 *)
        let parent = tagclass_ids.(Rng.int rng i) in
        ignore (add_rel is_subclass_of ~src:nd ~dst:parent ~props:[])
      end)
    tagclass_ids;
  let n_tags = 360 in
  let tagclass_zipf = Rng.Zipf.make ~n:n_tagclasses ~s:1.0 in
  let tag = node [ "Tag" ] and has_type = rel "HAS_TYPE" in
  let tag_ids =
    Array.init n_tags (fun i ->
        let nd =
          add_node tag ~props:(pp [ ("name", str (Printf.sprintf "Tag%d" i)) ])
        in
        ignore
          (add_rel has_type ~src:nd
             ~dst:tagclass_ids.(draw tagclass_zipf)
             ~props:[]);
        nd)
  in
  let tag_zipf = Rng.Zipf.make ~n:n_tags ~s:1.0 in
  let pick_tag () = tag_ids.(draw tag_zipf) in
  (* --- persons ------------------------------------------------------- *)
  (* Persons, forums, posts and comments each take one contiguous block of
     node ids, so the k-th of them is its block's base + k: no id array
     per entity. *)
  let person = node [ "Person" ] in
  let person_base = Graph_builder.node_count b in
  for _ = 1 to persons do
    ignore
      (add_node person
         ~props:
           (pp
              [ ("firstName", str (Rng.pick rng first_names));
                ("lastName", str (Rng.pick rng last_names));
                ("gender", str (Rng.pick rng genders));
                ("birthday", int (3650 + Rng.int rng 14000));
                ("creationDate", creation_date rng);
                ("browserUsed", str (Rng.pick rng browsers)) ]))
  done;
  let city_zipf = Rng.Zipf.make ~n:n_cities ~s:0.9 in
  let study_at = rel "STUDY_AT"
  and work_at = rel "WORK_AT"
  and has_interest = rel "HAS_INTEREST" in
  for k = 0 to persons - 1 do
    let p = person_base + k in
    ignore
      (add_rel is_located_in ~src:p ~dst:city_ids.(draw city_zipf) ~props:[]);
    if Rng.coin rng 0.75 then
      ignore
        (add_rel study_at ~src:p
           ~dst:(Rng.pick rng university_ids)
           ~props:(pp [ ("classYear", int (2000 + Rng.int rng 14)) ]));
    let jobs = Rng.geometric rng ~p:0.55 in
    for _ = 1 to min jobs 3 do
      ignore
        (add_rel work_at ~src:p
           ~dst:(Rng.pick rng company_ids)
           ~props:(pp [ ("workFrom", int (1995 + Rng.int rng 19)) ]))
    done;
    let interests = 2 + Rng.geometric rng ~p:0.35 in
    for _ = 1 to min interests 12 do
      ignore (add_rel has_interest ~src:p ~dst:(pick_tag ()) ~props:[])
    done
  done;
  (* friendships: preferential attachment for a skewed degree distribution *)
  let knows_per_person = 7 in
  let knows = rel "KNOWS" in
  for i = 1 to persons - 1 do
    let p = person_base + i in
    let friends = 1 + Rng.geometric rng ~p:(1.0 /. float_of_int knows_per_person) in
    for _ = 1 to min friends 40 do
      (* preferential: earlier persons (already better connected) are
         favoured by the Zipf pick *)
      let j = Rng.zipf rng ~n:i ~s:0.35 in
      if j <> i then
        ignore
          (add_rel knows ~src:p ~dst:(person_base + j)
             ~props:(pp [ ("creationDate", creation_date rng) ]))
    done
  done;
  (* --- forums, posts, comments -------------------------------------- *)
  let n_forums = max 1 (persons * 4 / 5) in
  let moderator_zipf = Rng.Zipf.make ~n:persons ~s:0.4
  and member_zipf = Rng.Zipf.make ~n:persons ~s:0.5
  and creator_zipf = Rng.Zipf.make ~n:persons ~s:0.6 in
  let forum = node [ "Forum" ]
  and has_moderator = rel "HAS_MODERATOR"
  and has_member = rel "HAS_MEMBER" in
  let forum_base = Graph_builder.node_count b in
  for i = 0 to n_forums - 1 do
    let nd =
      add_node forum
        ~props:
          (pp
             [ ("title", str (Printf.sprintf "Forum%d" i));
               ("creationDate", creation_date rng) ])
    in
    let moderator = person_base + draw moderator_zipf in
    ignore (add_rel has_moderator ~src:nd ~dst:moderator ~props:[]);
    let members = 3 + Rng.geometric rng ~p:0.12 in
    for _ = 1 to min members 60 do
      ignore
        (add_rel has_member ~src:nd
           ~dst:(person_base + draw member_zipf)
           ~props:(pp [ ("joinDate", creation_date rng) ]))
    done;
    ignore (add_rel has_tag ~src:nd ~dst:(pick_tag ()) ~props:[])
  done;
  let n_posts = persons * 4 in
  let forum_zipf = Rng.Zipf.make ~n:n_forums ~s:0.6 in
  let post = node [ "Message"; "Post" ] and container_of = rel "CONTAINER_OF" in
  let post_base = Graph_builder.node_count b in
  for _ = 1 to n_posts do
    let has_image = Rng.coin rng 0.2 in
    let props =
      [ ("creationDate", creation_date rng);
        ("browserUsed", str (Rng.pick rng browsers));
        ("length", int (10 + Rng.int rng 990));
        ("language", str (Rng.pick rng languages)) ]
    in
    let props =
      if has_image then ("imageFile", str "photo.jpg") :: props else props
    in
    let nd = add_node post ~props:(pp props) in
    let forum = forum_base + draw forum_zipf in
    ignore (add_rel container_of ~src:forum ~dst:nd ~props:[]);
    ignore
      (add_rel has_creator ~src:nd
         ~dst:(person_base + draw creator_zipf)
         ~props:[]);
    if Rng.coin rng 0.6 then
      ignore (add_rel has_tag ~src:nd ~dst:(pick_tag ()) ~props:[]);
    ignore
      (add_rel is_located_in ~src:nd
         ~dst:country_ids.(draw country_zipf)
         ~props:[])
  done;
  let n_comments = persons * 8 in
  let post_zipf = Rng.Zipf.make ~n:n_posts ~s:0.7 in
  let comment = node [ "Message"; "Comment" ] and reply_of = rel "REPLY_OF" in
  let comment_base = Graph_builder.node_count b in
  for i = 0 to n_comments - 1 do
    let nd =
      add_node comment
        ~props:
          (pp
             [ ("creationDate", creation_date rng);
               ("browserUsed", str (Rng.pick rng browsers));
               ("length", int (5 + Rng.int rng 295)) ])
    in
    (* reply to a post (70%) or an earlier comment (30%) *)
    let parent =
      if i = 0 || Rng.coin rng 0.7 then post_base + draw post_zipf
      else comment_base + Rng.int rng i
    in
    ignore (add_rel reply_of ~src:nd ~dst:parent ~props:[]);
    ignore
      (add_rel has_creator ~src:nd
         ~dst:(person_base + draw creator_zipf)
         ~props:[]);
    if Rng.coin rng 0.25 then
      ignore (add_rel has_tag ~src:nd ~dst:(pick_tag ()) ~props:[])
  done;
  (* likes: persons like posts and comments *)
  let n_likes = persons * 9 in
  let comment_zipf = Rng.Zipf.make ~n:n_comments ~s:0.7 in
  let likes = rel "LIKES" in
  for _ = 1 to n_likes do
    let person = person_base + draw member_zipf in
    let message =
      if Rng.coin rng 0.7 then post_base + draw post_zipf
      else comment_base + draw comment_zipf
    in
    ignore
      (add_rel likes ~src:person ~dst:message
         ~props:(pp [ ("creationDate", creation_date rng) ]))
  done;
  Dataset.make ~hierarchy_pairs ~name:"SNB" (Graph_builder.freeze b)
