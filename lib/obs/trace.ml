(* Low-overhead span tracer.

   Every domain that records owns a ring buffer of completed spans plus an
   explicit span stack (begin/end pairs), both reached through one
   [Domain.DLS] lookup — recording a span never takes a lock and never
   allocates beyond the span record itself. Rings register themselves in a
   global list on first use so [spans] can merge them; merging and clearing
   assume the traced workload is quiescent (every [Pool] call returned, so
   every pool domain has exited), which is when the CLI sinks run.

   A ring is a slot that belongs to one live domain at a time: when its
   domain exits, [Domain.at_exit] puts it on a free list, and the next
   domain that records takes it over. The released ring keeps its spans
   (they stay merged) and starts its next owner at depth 0, so a process
   that spawns fresh pool domains on every call holds as many rings as it
   ever had domains alive at once. Each span carries the id of the domain
   that recorded it as well as its ring slot, so successive owners of one
   ring stay apart in the trace.

   A span's begin and end always execute on the same domain (the stack lives
   in domain-local storage), so spans cannot cross domains and the per-domain
   depth recorded at [begin_span] yields well-nested intervals. When a ring
   fills, new spans are dropped and counted rather than overwriting older
   ones: the trace keeps the workload's leading structure and reports the
   loss. *)

type span = {
  name : string;
  cat : string;
  ts : int64;  (* start, ns since [epoch] *)
  dur : int64;  (* ns *)
  dom : int;  (* dense slot id, 0 = the first ring made *)
  domain : int;  (* [Domain.self ()] of the recording domain *)
  depth : int;  (* nesting depth at begin time, outermost = 0 *)
  args : (string * float) array;
}

(* All timestamps are reported relative to one process-wide origin so spans
   from different domains share a timeline. *)
let epoch = Lpp_util.Clock.now_ns ()

let capacity = 1 lsl 16

let dummy =
  {
    name = "";
    cat = "";
    ts = 0L;
    dur = 0L;
    dom = 0;
    domain = 0;
    depth = 0;
    args = [||];
  }

type dom_state = {
  id : int;
  mutable owner : int;  (* [Domain.self ()] of the domain holding the ring *)
  buf : span array;
  mutable len : int;
  mutable dropped : int;
  mutable stack_name : string array;
  mutable stack_cat : string array;
  mutable stack_ts : int64 array;
  mutable depth : int;
}

let registry_mutex = Mutex.create ()

let states : dom_state list ref = ref []
[@@lpp.domain_safe
  "ring registry: registration holds [registry_mutex]; merging assumes \
   quiescence (see module header)"]

let free : dom_state list ref = ref []
[@@lpp.domain_safe "rings of exited domains; guarded by [registry_mutex]"]

let make_state () =
  let owner = (Domain.self () :> int) in
  let st =
    Lpp_util.Sync.with_lock registry_mutex (fun () ->
        match !free with
        | st :: rest ->
            free := rest;
            st.owner <- owner;
            st.depth <- 0;
            st
        | [] ->
            let st =
              {
                id = List.length !states;
                owner;
                buf = Array.make capacity dummy;
                len = 0;
                dropped = 0;
                stack_name = Array.make 64 "";
                stack_cat = Array.make 64 "";
                stack_ts = Array.make 64 0L;
                depth = 0;
              }
            in
            states := st :: !states;
            st)
  in
  Domain.at_exit (fun () ->
      Lpp_util.Sync.with_lock registry_mutex (fun () -> free := st :: !free));
  st

let key = Domain.DLS.new_key make_state

let state () = Domain.DLS.get key

let grow_stack st =
  let n = Array.length st.stack_name in
  let copy a fill =
    let fresh = Array.make (2 * n) fill in
    Array.blit a 0 fresh 0 n;
    fresh
  in
  st.stack_name <- copy st.stack_name "";
  st.stack_cat <- copy st.stack_cat "";
  st.stack_ts <- copy st.stack_ts 0L

let begin_span ?(cat = "") name =
  if Flag.enabled () then begin
    let st = state () in
    if st.depth >= Array.length st.stack_name then grow_stack st;
    let d = st.depth in
    st.stack_name.(d) <- name;
    st.stack_cat.(d) <- cat;
    st.stack_ts.(d) <- Lpp_util.Clock.now_ns ();
    st.depth <- d + 1
  end

let end_span ?(args = [||]) () =
  if Flag.enabled () then begin
    let st = state () in
    (* depth 0 means tracing was enabled mid-span; drop silently *)
    if st.depth > 0 then begin
      let d = st.depth - 1 in
      st.depth <- d;
      let t0 = st.stack_ts.(d) in
      if st.len < Array.length st.buf then begin
        st.buf.(st.len) <-
          {
            name = st.stack_name.(d);
            cat = st.stack_cat.(d);
            ts = Lpp_util.Clock.diff_ns ~since:epoch t0;
            dur = Lpp_util.Clock.diff_ns ~since:t0 (Lpp_util.Clock.now_ns ());
            dom = st.id;
            domain = st.owner;
            depth = d;
            args;
          };
        st.len <- st.len + 1
      end
      else st.dropped <- st.dropped + 1
    end
  end

let with_span ?cat ?args name f =
  if not (Flag.enabled ()) then f ()
  else begin
    begin_span ?cat name;
    let finish () =
      end_span ?args:(match args with None -> None | Some a -> Some (a ())) ()
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* ---- collection (quiescent side) ------------------------------------ *)

let spans () =
  let all =
    Lpp_util.Sync.with_lock registry_mutex (fun () ->
        List.concat_map
          (fun st -> Array.to_list (Array.sub st.buf 0 st.len))
          !states)
  in
  List.sort
    (fun a b ->
      match Int64.compare a.ts b.ts with
      | 0 -> Int.compare a.dom b.dom
      | c -> c)
    all

let dropped () =
  Lpp_util.Sync.with_lock registry_mutex (fun () ->
      List.fold_left (fun acc st -> acc + st.dropped) 0 !states)

let clear () =
  Lpp_util.Sync.with_lock registry_mutex (fun () ->
      List.iter
        (fun st ->
          st.len <- 0;
          st.dropped <- 0;
          st.depth <- 0)
        !states)
