(* What the benchmark reads about its host and about the processes it
   measures: /proc, the OCaml runtime and the checkout's git metadata. *)

let read_file path =
  match open_in path with
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> Some (In_channel.input_all ic))
  | exception Sys_error _ -> None

let lines path =
  match read_file path with
  | Some s -> String.split_on_char '\n' s
  | None -> []

(* The value of a "Key:   123 kB" line of /proc/<pid>/status. *)
let status_kb ~pid key =
  let prefix = key ^ ":" in
  List.find_map
    (fun line ->
      if String.starts_with ~prefix line then
        let n = String.length prefix in
        let rest = String.sub line n (String.length line - n) in
        match String.split_on_char ' ' (String.trim rest) with
        | v :: _ -> int_of_string_opt v
        | [] -> None
      else None)
    (lines (Printf.sprintf "/proc/%d/status" pid))

(* Peak resident set (VmHWM) of a process, MiB. *)
let peak_rss_mb ~pid =
  match status_kb ~pid "VmHWM" with
  | Some kb -> float_of_int kb /. 1024.0
  | None -> failwith (Printf.sprintf "no VmHWM for pid %d" pid)

(* CPU time of a process, in microseconds. The scheduler's per-thread
   se.sum_exec_runtime (ms with ns digits) where the kernel exposes it;
   otherwise utime + stime from /proc/<pid>/stat, whose clock ticks of
   USER_HZ (100 on every Linux ABI) would quantise a one-second segment to
   about 1%. *)
let sched_runtime_us ~pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  match Sys.readdir dir with
  | exception Sys_error _ -> None
  | tids ->
      Array.fold_left
        (fun acc tid ->
          match acc with
          | None -> None
          | Some total ->
              List.find_map
                (fun line ->
                  if String.starts_with ~prefix:"se.sum_exec_runtime" line then
                    match String.rindex_opt line ' ' with
                    | Some i ->
                        Option.map
                          (fun ms -> total +. (ms *. 1e3))
                          (float_of_string_opt
                             (String.sub line (i + 1) (String.length line - i - 1)))
                    | None -> None
                  else None)
                (lines (Filename.concat dir (tid ^ "/sched"))))
        (Some 0.0) tids

let cpu_us ~pid =
  match sched_runtime_us ~pid with
  | Some us -> us
  | None -> (
      match read_file (Printf.sprintf "/proc/%d/stat" pid) with
      | None -> failwith (Printf.sprintf "no /proc/%d/stat" pid)
      | Some s ->
          (* the command name may contain spaces; fields resume after ')' *)
          let from = String.rindex s ')' + 2 in
          let rest = String.sub s from (String.length s - from) in
          let f = Array.of_list (String.split_on_char ' ' rest) in
          (* f.(0) is field 3 (state); utime and stime are fields 14 and 15 *)
          float_of_int (int_of_string f.(11) + int_of_string f.(12)) *. 1e4)

(* Sets the main thread's timer slack, the time by which the kernel may
   delay the end of a sleep or select timeout (50 µs by default). A thread
   may change its own without privilege (Linux 4.6 and later); [false]
   where it cannot. *)
let set_timer_slack_ns ns =
  match open_out "/proc/self/timerslack_ns" with
  | oc -> (
      match
        output_string oc (string_of_int ns);
        close_out oc
      with
      | () -> true
      | exception Sys_error _ ->
          close_out_noerr oc;
          false)
  | exception Sys_error _ -> false

(* CPUs this process may run on, as nproc(1) counts them. *)
let nproc () =
  let count_list s =
    List.fold_left
      (fun acc part ->
        match String.split_on_char '-' (String.trim part) with
        | [ a ] -> if int_of_string_opt a = None then acc else acc + 1
        | [ a; b ] -> (
            match (int_of_string_opt a, int_of_string_opt b) with
            | Some a, Some b -> acc + (b - a + 1)
            | _ -> acc)
        | _ -> acc)
      0 (String.split_on_char ',' s)
  in
  match
    List.find_map
      (fun line ->
        if String.starts_with ~prefix:"Cpus_allowed_list:" line then
          Some (String.sub line 18 (String.length line - 18))
        else None)
      (lines "/proc/self/status")
  with
  | Some l when count_list l > 0 -> count_list l
  | _ -> Domain.recommended_domain_count ()

let loadavg () =
  match read_file "/proc/loadavg" with
  | Some s -> (
      match String.split_on_char ' ' s with
      | a :: b :: c :: _ -> String.concat " " [ a; b; c ]
      | _ -> String.trim s)
  | None -> "unknown"

(* The commit the checkout was made from, when it is a git work tree. *)
let git_rev () =
  let trim = Option.map String.trim in
  match trim (read_file ".git/HEAD") with
  | Some head when String.starts_with ~prefix:"ref: " head -> (
      let r = String.sub head 5 (String.length head - 5) in
      match trim (read_file (Filename.concat ".git" r)) with
      | Some rev -> rev
      | None ->
          Option.value ~default:"unknown"
            (List.find_map
               (fun line ->
                 match String.split_on_char ' ' line with
                 | [ rev; name ] when name = r -> Some rev
                 | _ -> None)
               (lines ".git/packed-refs")))
  | Some rev when rev <> "" -> rev
  | _ -> "unknown"

type stamp = {
  host_domains : int;
  nproc : int;
  ocaml : string;
  git_rev : string;
  loadavg_start : string;
  mutable loadavg_end : string;
}

let stamp () =
  {
    host_domains = Domain.recommended_domain_count ();
    nproc = nproc ();
    ocaml = Sys.ocaml_version;
    git_rev = git_rev ();
    loadavg_start = loadavg ();
    loadavg_end = "";
  }
