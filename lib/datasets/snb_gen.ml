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
     is identical with and without properties. *)
  let with_props = props in
  let pp l = if with_props then l else [] in
  (* Zipf samplers are made once per fixed (n, s); only KNOWS, whose rank
     count grows with every person, draws through [Rng.zipf]. *)
  let draw z = Rng.Zipf.draw rng z in
  (* --- places ------------------------------------------------------- *)
  let continent_ids =
    Array.map
      (fun name ->
        Graph_builder.add_node b ~labels:[ "Place"; "Continent" ]
          ~props:(pp [ ("name", str name) ]))
      continents
  in
  let n_countries = 28 in
  let continent_zipf = Rng.Zipf.make ~n:(Array.length continents) ~s:0.8 in
  let country_ids =
    Array.init n_countries (fun i ->
        let nd =
          Graph_builder.add_node b ~labels:[ "Place"; "Country" ]
            ~props:(pp [ ("name", str (Printf.sprintf "Country%d" i)) ])
        in
        let cont = continent_ids.(draw continent_zipf) in
        ignore
          (Graph_builder.add_rel b ~src:nd ~dst:cont ~rel_type:"IS_PART_OF"
             ~props:[]);
        nd)
  in
  let n_cities = 170 in
  let country_zipf = Rng.Zipf.make ~n:n_countries ~s:0.9 in
  let city_ids =
    Array.init n_cities (fun i ->
        let nd =
          Graph_builder.add_node b ~labels:[ "Place"; "City" ]
            ~props:(pp [ ("name", str (Printf.sprintf "City%d" i)) ])
        in
        let country = country_ids.(draw country_zipf) in
        ignore
          (Graph_builder.add_rel b ~src:nd ~dst:country ~rel_type:"IS_PART_OF"
             ~props:[]);
        nd)
  in
  (* --- organisations ------------------------------------------------ *)
  let n_universities = 45 in
  let university_ids =
    Array.init n_universities (fun i ->
        let nd =
          Graph_builder.add_node b ~labels:[ "Organisation"; "University" ]
            ~props:
              (pp
                 [ ("name", str (Printf.sprintf "University%d" i));
                   ("url", str (Printf.sprintf "http://uni%d.example.org" i)) ])
        in
        ignore
          (Graph_builder.add_rel b ~src:nd
             ~dst:(Rng.pick rng city_ids)
             ~rel_type:"IS_LOCATED_IN" ~props:[]);
        nd)
  in
  let n_companies = 80 in
  let company_ids =
    Array.init n_companies (fun i ->
        let nd =
          Graph_builder.add_node b ~labels:[ "Organisation"; "Company" ]
            ~props:
              (pp
                 [ ("name", str (Printf.sprintf "Company%d" i));
                   ("url",
                    str (Printf.sprintf "http://company%d.example.com" i)) ])
        in
        ignore
          (Graph_builder.add_rel b ~src:nd
             ~dst:(Rng.pick rng country_ids)
             ~rel_type:"IS_LOCATED_IN" ~props:[]);
        nd)
  in
  (* --- tags ---------------------------------------------------------- *)
  let n_tagclasses = 20 in
  let tagclass_ids =
    Array.init n_tagclasses (fun i ->
        Graph_builder.add_node b ~labels:[ "TagClass" ]
          ~props:(pp [ ("name", str (Printf.sprintf "TagClass%d" i)) ]))
  in
  Array.iteri
    (fun i nd ->
      if i > 0 then begin
        (* a tree over tag classes, rooted at TagClass0 *)
        let parent = tagclass_ids.(Rng.int rng i) in
        ignore
          (Graph_builder.add_rel b ~src:nd ~dst:parent
             ~rel_type:"IS_SUBCLASS_OF" ~props:[])
      end)
    tagclass_ids;
  let n_tags = 360 in
  let tagclass_zipf = Rng.Zipf.make ~n:n_tagclasses ~s:1.0 in
  let tag_ids =
    Array.init n_tags (fun i ->
        let nd =
          Graph_builder.add_node b ~labels:[ "Tag" ]
            ~props:(pp [ ("name", str (Printf.sprintf "Tag%d" i)) ])
        in
        ignore
          (Graph_builder.add_rel b ~src:nd
             ~dst:tagclass_ids.(draw tagclass_zipf)
             ~rel_type:"HAS_TYPE" ~props:[]);
        nd)
  in
  let tag_zipf = Rng.Zipf.make ~n:n_tags ~s:1.0 in
  let pick_tag () = tag_ids.(draw tag_zipf) in
  (* --- persons ------------------------------------------------------- *)
  let person_ids =
    Array.init persons (fun _ ->
        Graph_builder.add_node b ~labels:[ "Person" ]
          ~props:
            (pp
               [ ("firstName", str (Rng.pick rng first_names));
                 ("lastName", str (Rng.pick rng last_names));
                 ("gender", str (Rng.pick rng genders));
                 ("birthday", int (3650 + Rng.int rng 14000));
                 ("creationDate", creation_date rng);
                 ("browserUsed", str (Rng.pick rng browsers)) ]))
  in
  let city_zipf = Rng.Zipf.make ~n:n_cities ~s:0.9 in
  Array.iter
    (fun p ->
      ignore
        (Graph_builder.add_rel b ~src:p
           ~dst:city_ids.(draw city_zipf)
           ~rel_type:"IS_LOCATED_IN" ~props:[]);
      if Rng.coin rng 0.75 then
        ignore
          (Graph_builder.add_rel b ~src:p
             ~dst:(Rng.pick rng university_ids)
             ~rel_type:"STUDY_AT"
             ~props:(pp [ ("classYear", int (2000 + Rng.int rng 14)) ]));
      let jobs = Rng.geometric rng ~p:0.55 in
      for _ = 1 to min jobs 3 do
        ignore
          (Graph_builder.add_rel b ~src:p
             ~dst:(Rng.pick rng company_ids)
             ~rel_type:"WORK_AT"
             ~props:(pp [ ("workFrom", int (1995 + Rng.int rng 19)) ]))
      done;
      let interests = 2 + Rng.geometric rng ~p:0.35 in
      for _ = 1 to min interests 12 do
        ignore
          (Graph_builder.add_rel b ~src:p ~dst:(pick_tag ())
             ~rel_type:"HAS_INTEREST" ~props:[])
      done)
    person_ids;
  (* friendships: preferential attachment for a skewed degree distribution *)
  let knows_per_person = 7 in
  Array.iteri
    (fun i p ->
      if i > 0 then begin
        let friends = 1 + Rng.geometric rng ~p:(1.0 /. float_of_int knows_per_person) in
        for _ = 1 to min friends 40 do
          (* preferential: earlier persons (already better connected) are
             favoured by the Zipf pick *)
          let j = Rng.zipf rng ~n:i ~s:0.35 in
          if j <> i then
            ignore
              (Graph_builder.add_rel b ~src:p ~dst:person_ids.(j)
                 ~rel_type:"KNOWS"
                 ~props:(pp [ ("creationDate", creation_date rng) ]))
        done
      end)
    person_ids;
  (* --- forums, posts, comments -------------------------------------- *)
  let n_forums = max 1 (persons * 4 / 5) in
  let moderator_zipf = Rng.Zipf.make ~n:persons ~s:0.4
  and member_zipf = Rng.Zipf.make ~n:persons ~s:0.5
  and creator_zipf = Rng.Zipf.make ~n:persons ~s:0.6 in
  let forum_ids =
    Array.init n_forums (fun i ->
        let nd =
          Graph_builder.add_node b ~labels:[ "Forum" ]
            ~props:
              (pp
                 [ ("title", str (Printf.sprintf "Forum%d" i));
                   ("creationDate", creation_date rng) ])
        in
        let moderator = person_ids.(draw moderator_zipf) in
        ignore
          (Graph_builder.add_rel b ~src:nd ~dst:moderator
             ~rel_type:"HAS_MODERATOR" ~props:[]);
        let members = 3 + Rng.geometric rng ~p:0.12 in
        for _ = 1 to min members 60 do
          ignore
            (Graph_builder.add_rel b ~src:nd
               ~dst:person_ids.(draw member_zipf)
               ~rel_type:"HAS_MEMBER"
               ~props:(pp [ ("joinDate", creation_date rng) ]))
        done;
        ignore
          (Graph_builder.add_rel b ~src:nd ~dst:(pick_tag ())
             ~rel_type:"HAS_TAG" ~props:[]);
        nd)
  in
  let n_posts = persons * 4 in
  let forum_zipf = Rng.Zipf.make ~n:n_forums ~s:0.6 in
  let post_ids =
    Array.init n_posts (fun _ ->
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
        let nd =
          Graph_builder.add_node b ~labels:[ "Message"; "Post" ]
            ~props:(pp props)
        in
        let forum = forum_ids.(draw forum_zipf) in
        ignore
          (Graph_builder.add_rel b ~src:forum ~dst:nd ~rel_type:"CONTAINER_OF"
             ~props:[]);
        ignore
          (Graph_builder.add_rel b ~src:nd
             ~dst:person_ids.(draw creator_zipf)
             ~rel_type:"HAS_CREATOR" ~props:[]);
        if Rng.coin rng 0.6 then
          ignore
            (Graph_builder.add_rel b ~src:nd ~dst:(pick_tag ())
               ~rel_type:"HAS_TAG" ~props:[]);
        ignore
          (Graph_builder.add_rel b ~src:nd
             ~dst:country_ids.(draw country_zipf)
             ~rel_type:"IS_LOCATED_IN" ~props:[]);
        nd)
  in
  let n_comments = persons * 8 in
  let post_zipf = Rng.Zipf.make ~n:n_posts ~s:0.7 in
  let comment_ids = Array.make n_comments (-1) in
  for i = 0 to n_comments - 1 do
    let nd =
      Graph_builder.add_node b ~labels:[ "Message"; "Comment" ]
        ~props:
          (pp
             [ ("creationDate", creation_date rng);
               ("browserUsed", str (Rng.pick rng browsers));
               ("length", int (5 + Rng.int rng 295)) ])
    in
    comment_ids.(i) <- nd;
    (* reply to a post (70%) or an earlier comment (30%) *)
    let parent =
      if i = 0 || Rng.coin rng 0.7 then post_ids.(draw post_zipf)
      else comment_ids.(Rng.int rng i)
    in
    ignore (Graph_builder.add_rel b ~src:nd ~dst:parent ~rel_type:"REPLY_OF" ~props:[]);
    ignore
      (Graph_builder.add_rel b ~src:nd
         ~dst:person_ids.(draw creator_zipf)
         ~rel_type:"HAS_CREATOR" ~props:[]);
    if Rng.coin rng 0.25 then
      ignore
        (Graph_builder.add_rel b ~src:nd ~dst:(pick_tag ()) ~rel_type:"HAS_TAG"
           ~props:[])
  done;
  (* likes: persons like posts and comments *)
  let n_likes = persons * 9 in
  let comment_zipf = Rng.Zipf.make ~n:n_comments ~s:0.7 in
  for _ = 1 to n_likes do
    let person = person_ids.(draw member_zipf) in
    let message =
      if Rng.coin rng 0.7 then post_ids.(draw post_zipf)
      else comment_ids.(draw comment_zipf)
    in
    ignore
      (Graph_builder.add_rel b ~src:person ~dst:message ~rel_type:"LIKES"
         ~props:(pp [ ("creationDate", creation_date rng) ]))
  done;
  Dataset.make ~hierarchy_pairs ~name:"SNB" (Graph_builder.freeze b)
