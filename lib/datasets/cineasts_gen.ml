open Lpp_pgraph
open Lpp_util

let hierarchy_pairs =
  [ ("Actor", "Person"); ("Director", "Person"); ("User", "Person") ]

let genres =
  [| "Drama"; "Comedy"; "Action"; "Thriller"; "Documentary"; "Romance";
     "Horror"; "SciFi" |]

let countries = [| "USA"; "UK"; "France"; "Germany"; "Japan"; "India" |]

let str s = Value.Str s

let int i = Value.Int i

let generate ?(movies = 2200) ?(props = true) ~seed () =
  let rng = Rng.create seed in
  let b = Graph_builder.create () in
  (* Whether to attach properties (off at the Large tier). All RNG draws
     happen either way, so the relationship structure is identical. *)
  let with_props = props in
  let n_people = movies * 2 in
  (* Professions overlap: some people act, some direct, some do both; a
     disjoint group are platform users who only rate and befriend. The
     profession flags live in flat bool arrays (not a per-person tuple list)
     so peak memory stays proportional to the packed graph. *)
  let person_acts = Array.make n_people false in
  let person_directs = Array.make n_people false in
  let person_user = Array.make n_people false in
  (* A person's label list by its profession flags, numbered acts·4 +
     directs·2 + user, each resolved at its first use ({!Kind}). The
     builder is empty here, so person i is node i. *)
  let person_kind =
    Array.init 8 (fun k ->
        Kind.node b
          ([ "Person" ]
          @ (if k land 4 <> 0 then [ "Actor" ] else [])
          @ (if k land 2 <> 0 then [ "Director" ] else [])
          @ if k land 1 <> 0 then [ "User" ] else []))
  and flag f bit = if f then bit else 0 in
  for i = 0 to n_people - 1 do
    let acts = Rng.coin rng 0.62 in
    let directs = Rng.coin rng (if acts then 0.06 else 0.22) in
    let is_user = (not acts) && (not directs) || Rng.coin rng 0.08 in
    person_acts.(i) <- acts;
    person_directs.(i) <- directs;
    person_user.(i) <- is_user;
    let birthyear = 1930 + Rng.int rng 75 in
    let birthplace =
      if Rng.coin rng 0.7 then Some (Rng.pick rng countries) else None
    in
    let props =
      if not with_props then []
      else begin
        let props =
          [ ("name", str (Printf.sprintf "Person%d" i));
            ("birthyear", int birthyear) ]
        in
        let props =
          if is_user then ("login", str (Printf.sprintf "user%d" i)) :: props
          else props
        in
        match birthplace with
        | Some c -> ("birthplace", str c) :: props
        | None -> props
      end
    in
    ignore
      (Kind.add_node
         person_kind.(flag acts 4 + flag directs 2 + flag is_user 1)
         ~props)
  done;
  let selected flags =
    let n = Array.fold_left (fun acc f -> if f then acc + 1 else acc) 0 flags in
    let out = Array.make (max n 1) 0 in
    let j = ref 0 in
    Array.iteri
      (fun i f ->
        if f then begin
          out.(!j) <- i;
          incr j
        end)
      flags;
    Array.sub out 0 n
  in
  let actors = selected person_acts in
  let directors = selected person_directs in
  let users = selected person_user in
  (* Zipf samplers are made once per fixed (n, s). *)
  let actor_zipf = Rng.Zipf.make ~n:(Array.length actors) ~s:0.7
  and director_zipf = Rng.Zipf.make ~n:(Array.length directors) ~s:0.6
  and user_zipf = Rng.Zipf.make ~n:(Array.length users) ~s:0.5
  and movie_zipf = Rng.Zipf.make ~n:movies ~s:0.8 in
  (* movies take the next block of node ids: movie i is [movie_base + i] *)
  let movie = Kind.node b [ "Movie" ] in
  let movie_base = Graph_builder.node_count b in
  for i = 0 to movies - 1 do
    let year = 1950 + Rng.int rng 72 in
    let genre = Rng.pick rng genres in
    let runtime = 60 + Rng.int rng 120 in
    let language =
      if Rng.coin rng 0.5 then
        Some (Rng.pick rng [| "en"; "fr"; "de"; "ja"; "hi" |])
      else None
    in
    let props =
      if not with_props then []
      else begin
        let props =
          [ ("title", str (Printf.sprintf "Movie%d" i));
            ("year", int year);
            ("genre", str genre);
            ("runtime", int runtime) ]
        in
        match language with
        | Some l -> ("language", str l) :: props
        | None -> props
      end
    in
    ignore (Kind.add_node movie ~props)
  done;
  let acts_in = Kind.rel b "ACTS_IN" and directed = Kind.rel b "DIRECTED" in
  for i = 0 to movies - 1 do
    let m = movie_base + i in
    (* cast: Zipf over actors so a few stars appear in many movies *)
    let cast_size = 3 + Rng.geometric rng ~p:0.35 in
    for _ = 1 to min cast_size 12 do
      let a = actors.(Rng.Zipf.draw rng actor_zipf) in
      let role = Rng.int rng 500 in
      ignore
        (Kind.add_rel acts_in ~src:a ~dst:m
           ~props:
             (if with_props then [ ("role", str (Printf.sprintf "Role%d" role)) ]
              else []))
    done;
    let d = directors.(Rng.Zipf.draw rng director_zipf) in
    ignore (Kind.add_rel directed ~src:d ~dst:m ~props:[]);
    if Rng.coin rng 0.15 then begin
      let d2 = directors.(Rng.Zipf.draw rng director_zipf) in
      if d2 <> d then ignore (Kind.add_rel directed ~src:d2 ~dst:m ~props:[])
    end
  done;
  (* ratings by users *)
  let n_ratings = Array.length users * 8 in
  let rated = Kind.rel b "RATED" in
  for _ = 1 to n_ratings do
    let u = users.(Rng.Zipf.draw rng user_zipf) in
    let m = movie_base + Rng.Zipf.draw rng movie_zipf in
    let stars = 1 + Rng.int rng 5 in
    let commented = Rng.coin rng 0.3 in
    let props =
      if not with_props then []
      else if commented then [ ("comment", str "nice one"); ("stars", int stars) ]
      else [ ("stars", int stars) ]
    in
    ignore (Kind.add_rel rated ~src:u ~dst:m ~props)
  done;
  (* sparse friendship network among users: almost triangle-free *)
  let n_users = Array.length users in
  let friend = Kind.rel b "FRIEND" in
  for i = 1 to n_users - 1 do
    if Rng.coin rng 0.8 then begin
      let j = Rng.int rng i in
      ignore (Kind.add_rel friend ~src:users.(i) ~dst:users.(j) ~props:[])
    end
  done;
  Dataset.make ~hierarchy_pairs ~name:"Cineasts" (Graph_builder.freeze b)
