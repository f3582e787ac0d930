(** The service workload.

    A [zkbench serve --jobs <nproc>] daemon runs as its own process over
    a fresh state directory and a fresh compile cache (its working
    directory).  This process generates the load: two closed-loop client
    connections, each submitting its next job only once the previous
    one's [done] arrived.  Jobs are a seeded mix of all five kinds —
    sweep, profile, autotune, fuzz and settle — in fixed proportions;
    every other sweep and profile job repeats the one before it of its
    kind, so the shared cache serves both hits and misses, and the cold
    and the repeated jobs have the same mix.  Programs come from the
    suites with small cells (a16z, misc, rsp, succinct): the sweeps
    already cover the heavy suites, and small jobs let a run complete
    the hundred-plus jobs a p90 with ten samples beyond it needs. *)

open Common
module Proto = Zkopt_serve.Proto
module Client = Zkopt_serve.Client
module Job = Zkopt_serve.Job
module Json = Zkopt_report.Json
module Stat = Perfkit.Stat
module Qwait = Perfkit.Qwait

let suites = [ "a16z"; "misc"; "rsp"; "succinct" ]
let clients = min 2 nproc
let setup_reps = 7

(* ---- the job plan ------------------------------------------------------ *)

type planned = {
  kind : string;
  spec : Job.spec;
  repeat_of : int option;  (** plan index of the job this one repeats *)
  rows : int;  (** rows the job must stream *)
}

let tune_iters = 8
let tune_population = 4
let fuzz_pipelines = [ "baseline"; "O1"; "O2"; "O3"; "Os"; "Oz" ]
let backends = 3 (* the registry default of fuzz and settle: risc0, sp1, valida *)

let levels = [ "O0"; "O1"; "O2"; "O3"; "Os"; "Oz" ]
let all_profiles = ("baseline" :: levels) @ Zkopt_passes.Catalog.swept_passes

(* One cycle of the mix; the seed shuffles each cycle. *)
let cycle =
  [ "profile"; "profile"; "profile"; "sweep"; "sweep"; "autotune"; "fuzz"; "settle" ]

let pick rng xs = List.nth xs (Random.State.int rng (List.length xs))

(* [n] distinct picks *)
let picks rng n xs = List.filteri (fun i _ -> i < n) (shuffle rng xs)

let plan ~seed (n : int) : planned array =
  let rng = Random.State.make [| seed; 0x5e77e |] in
  (* programs in a stratified order: each suite shuffled and spread
     evenly over the cycle, so every window of the sequence draws the
     suites in proportion *)
  let order () =
    List.concat_map
      (fun (_, ws) ->
        let k = float_of_int (List.length ws) in
        List.mapi
          (fun i w -> ((float_of_int i +. Random.State.float rng 1.) /. k, w.W.name))
          (shuffle rng ws))
      (by_suite ~suites ())
    |> List.sort compare |> List.map snd
  in
  let queue = ref [] in
  let next_program () =
    if !queue = [] then queue := order ();
    match !queue with
    | p :: rest ->
      queue := rest;
      p
    | [] -> assert false
  in
  let fuzz_seed = ref (1 + (seed mod 10_000 * 64)) in
  let pending = Hashtbl.create 2 in
  let out = Hashtbl.create n in
  let emit i kind =
    let fresh () =
      match kind with
      | "profile" ->
        {
          kind;
          spec =
            Job.Profile_cell
              {
                program = next_program ();
                profile = pick rng all_profiles;
                vm = pick rng [ "risc0"; "sp1" ];
                quick = true;
              };
          repeat_of = None;
          rows = 1;
        }
      | "sweep" ->
        {
          kind;
          spec =
            Job.Sweep
              {
                programs = Some [ next_program () ];
                profiles = Some (picks rng 3 all_profiles);
                quick = true;
                backends = None;
                limit = None;
              };
          repeat_of = None;
          rows = 3;
        }
      | "autotune" ->
        {
          kind;
          spec =
            Job.Autotune
              {
                program = next_program ();
                iters = tune_iters;
                vm = pick rng [ "risc0"; "sp1" ];
                quick = true;
                seed = Random.State.int rng 1_000_000;
                population = tune_population;
              };
          repeat_of = None;
          (* one row per evaluation plus one per generation *)
          rows = tune_iters + ((tune_iters + tune_population - 1) / tune_population);
        }
      | "fuzz" ->
        let lo = !fuzz_seed in
        fuzz_seed := lo + 2;
        {
          kind;
          spec =
            Job.Fuzz
              {
                seed_lo = lo;
                seed_hi = lo + 1;
                pipelines = picks rng 2 fuzz_pipelines;
                backends = None;
                limit = None;
              };
          repeat_of = None;
          rows = 4;
        }
      | _ ->
        {
          kind;
          spec =
            Job.Settle
              {
                programs = Some [ next_program () ];
                profiles = Some [ pick rng ("baseline" :: levels) ];
                backends = None;
                quick = true;
                arity = 8;
              };
          repeat_of = None;
          rows = backends;
        }
    in
    (* every other sweep and profile job repeats the previous one of its
       kind *)
    let j =
      match Hashtbl.find_opt pending kind with
      | Some k ->
        Hashtbl.remove pending kind;
        { (Hashtbl.find out k) with repeat_of = Some k }
      | None ->
        if kind = "profile" || kind = "sweep" then Hashtbl.replace pending kind i;
        fresh ()
    in
    Hashtbl.replace out i j
  in
  let i = ref 0 in
  while !i < n do
    List.iter
      (fun kind ->
        if !i < n then begin
          emit !i kind;
          incr i
        end)
      (shuffle rng cycle)
  done;
  Array.init n (Hashtbl.find out)

(* ---- the daemon -------------------------------------------------------- *)

type daemon = {
  pid : int;
  sock : string;
  drain : Thread.t;  (** copies the daemon's log to [dir]/daemon.log *)
}

let sock_name = "zkbench.sock"

(* Fork + exec the daemon in [dir], so its compile cache (_zkcache/ under
   its working directory) and its state directory start empty.  The
   socket path is relative to keep it under the unix-socket length limit
   however deep the checkout lives.  The daemon's log comes back through
   a pipe: its "listening" line says the socket accepts connections, and
   a thread then copies the rest to a file so the daemon never blocks on
   a full pipe. *)
let spawn ~zkbench ~dir : daemon =
  mkdir_p dir;
  let exe =
    if Filename.is_relative zkbench then Filename.concat (Sys.getcwd ()) zkbench
    else zkbench
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  flush_all ();
  match Unix.fork () with
  | 0 -> (
    try
      Unix.chdir dir;
      Unix.dup2 ~cloexec:false wr Unix.stdout;
      Unix.dup2 ~cloexec:false wr Unix.stderr;
      Unix.execv exe
        [| exe; "serve"; "--dir"; "state"; "--sock"; sock_name; "--jobs";
           string_of_int nproc |]
    with _ -> Unix._exit 127)
  | pid ->
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let log = open_out (Filename.concat dir "daemon.log") in
    let copy () =
      (try
         while true do
           output_string log (input_line ic);
           output_char log '\n'
         done
       with End_of_file | Sys_error _ -> ());
      close_out log;
      close_in ic
    in
    let rec listening () =
      match input_line ic with
      | line when String.starts_with ~prefix:"serve: listening" line -> true
      | _ -> listening ()
      | exception End_of_file -> false
    in
    let up = listening () in
    let d = { pid; sock = Filename.concat dir sock_name; drain = Thread.create copy () } in
    if up then d
    else begin
      ignore (Unix.waitpid [] pid);
      Thread.join d.drain;
      failwith "daemon exited before listening"
    end

let connect (d : daemon) : Client.t =
  match Client.connect d.sock with Ok c -> c | Error e -> failwith ("daemon: " ^ e)

let rec recv_status (c : Client.t) : Json.t =
  match Client.recv c with
  | Ok (Proto.Status_report s) -> s
  | Ok _ -> recv_status c
  | Error `Eof -> failwith "daemon closed the connection"
  | Error (`Bad msg) -> failwith msg

let status (c : Client.t) : Json.t =
  (match Client.send c Proto.Status with Ok () -> () | Error e -> failwith e);
  recv_status c

(* Shut the daemon down and reap it; SIGKILL if it will not drain. *)
let stop (d : daemon) =
  (match Client.connect d.sock with
  | Ok c ->
    ignore (Client.send c Proto.Shutdown);
    ignore (Client.recv c);
    Client.close c
  | Error _ -> ());
  let deadline = now () +. 30. in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when now () < deadline ->
      Unix.sleepf 0.01;
      reap ()
    | 0, _ ->
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] d.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
    | exception Unix.Unix_error _ -> ()
  in
  reap ();
  Thread.join d.drain

(* Set-up: daemon spawn until its first status round-trip. *)
let start ~zkbench ~dir : daemon * float =
  let t0 = now () in
  let d = spawn ~zkbench ~dir in
  match
    let c = connect d in
    ignore (status c);
    Client.close c
  with
  | () -> (d, now () -. t0)
  | exception e ->
    stop d;
    raise e

(* ---- load generation --------------------------------------------------- *)

type result = {
  idx : int;  (** plan index *)
  seq : int;  (** daemon submission order *)
  submit : float;
  ack : float;
  row_ts : float list;  (** arrival time of each row, in order *)
  rows : string list;  (** row payloads, in arrival order *)
  done_ : float;
  outcome : (Json.t, string) Stdlib.result;  (** summary, or the error *)
}

let seq_of_id id =
  match String.split_on_char '-' id with
  | [ "job"; n ] -> Option.value ~default:0 (int_of_string_opt n)
  | _ -> 0

(* Submit one job and follow it to its terminal event. *)
let run_job (c : Client.t) idx (p : planned) : result =
  let submit = now () in
  (match
     Client.send c (Proto.Submit { spec = p.spec; priority = 10; budget = None; watch = true })
   with
  | Ok () -> ()
  | Error e -> failwith e);
  let fail msg = failwith ("daemon: " ^ msg) in
  let rec await_ack () =
    match Client.recv c with
    | Ok (Proto.Ack { id }) -> (id, now ())
    | Ok (Proto.Err { msg }) -> fail msg
    | Ok _ -> await_ack ()
    | Error `Eof -> fail "connection closed"
    | Error (`Bad m) -> fail m
  in
  let id, ack = await_ack () in
  let rec follow ts rows =
    match Client.recv c with
    | Ok (Proto.Row { id = rid; data }) when String.equal rid id ->
      follow (now () :: ts) (data :: rows)
    | Ok (Proto.Done { id = did; summary }) when String.equal did id ->
      (ts, rows, now (), Ok summary)
    | Ok (Proto.Err { msg }) -> (ts, rows, now (), Error msg)
    | Ok _ -> follow ts rows
    | Error `Eof -> (ts, rows, now (), Error "connection closed")
    | Error (`Bad m) -> (ts, rows, now (), Error m)
  in
  let ts, rows, done_, outcome = follow [] [] in
  {
    idx;
    seq = seq_of_id id;
    submit;
    ack;
    row_ts = List.rev ts;
    rows = List.rev rows;
    done_;
    outcome;
  }

type load = {
  results : result list;  (** in plan order *)
  t0 : float;  (** first submit *)
  t1 : float;  (** last done *)
  rtts : float list;  (** status round-trips *)
  final_status : Json.t;
}

(* Two closed-loop clients draw from one cursor over the plan until
   [stop_at] returns true; with [probe] each client also times a status
   round-trip after every job. *)
let drive (d : daemon) (plan : planned array) ~(stop_at : int -> bool) ~probe : load =
  let mu = Mutex.create () in
  let cursor = ref 0 and results = ref [] and rtts = ref [] and errors = ref [] in
  let next () =
    Mutex.lock mu;
    let i = !cursor in
    let r = if i < Array.length plan && not (stop_at i) then (incr cursor; Some i) else None in
    Mutex.unlock mu;
    r
  in
  let client () =
    match
      let c = connect d in
      let rec loop () =
        match next () with
        | None -> ()
        | Some i ->
          let r = run_job c i plan.(i) in
          let rtt =
            if probe then begin
              let t = now () in
              ignore (status c);
              Some (now () -. t)
            end
            else None
          in
          Mutex.lock mu;
          results := r :: !results;
          Option.iter (fun x -> rtts := x :: !rtts) rtt;
          Mutex.unlock mu;
          loop ()
      in
      Fun.protect ~finally:(fun () -> Client.close c) loop
    with
    | () -> ()
    | exception e ->
      Mutex.lock mu;
      errors := Printexc.to_string e :: !errors;
      Mutex.unlock mu
  in
  let ths = List.init clients (fun _ -> Thread.create client ()) in
  List.iter Thread.join ths;
  (match !errors with e :: _ -> failwith e | [] -> ());
  let results = List.sort (fun a b -> compare a.idx b.idx) !results in
  let c = connect d in
  let final_status = Fun.protect ~finally:(fun () -> Client.close c) (fun () -> status c) in
  {
    results;
    t0 = List.fold_left (fun a r -> Float.min a r.submit) infinity results;
    t1 = List.fold_left (fun a r -> Float.max a r.done_) neg_infinity results;
    rtts = !rtts;
    final_status;
  }

(* ---- checks ------------------------------------------------------------ *)

let int_of k j = Option.value ~default:(-1) (Json.int_member k j)

(* Whether a finished job did exactly what was planned, with correct
   output: its summary reports no quarantined or diverged work and the
   planned size, it streamed the planned rows, cell rows carry the
   reference exit values, and a repeated job streamed the same rows as
   the job it repeats. *)
let job_ok ~refs (plan : planned array) (by_idx : (int, result) Hashtbl.t) (r : result) =
  let p = plan.(r.idx) in
  match r.outcome with
  | Error _ -> false
  | Ok s ->
    List.length r.rows = p.rows
    && (match p.kind with
       | "sweep" ->
         int_of "quarantined" s = 0 && int_of "points" s = p.rows
         && Json.bool_member "completed" s = Some true
       | "profile" -> true
       | "autotune" ->
         int_of "evaluations" s = tune_iters
         && int_of "evaluations" s + int_of "generations" s = p.rows
       | "fuzz" -> int_of "diverged" s = 0 && int_of "ran" s = p.rows && int_of "planned" s = p.rows
       | _ -> int_of "rows" s = p.rows && Json.bool_member "completed" s = Some true)
    && ((p.kind <> "sweep" && p.kind <> "profile") || List.for_all (row_ok refs) r.rows)
    &&
    match p.repeat_of with
    | Some k -> (
      match Hashtbl.find_opt by_idx k with
      | Some o -> List.sort compare o.rows = List.sort compare r.rows
      | None -> true)
    | None -> true

(* ---- metrics ------------------------------------------------------------ *)

let ms x = x *. 1000.
let p50 xs = if xs = [] then 0. else ms (Stat.median xs)
let kinds = [ "sweep"; "profile"; "autotune"; "fuzz"; "settle" ]

(* Each finished job with its reconstructed start, queue wait and run
   time, in daemon order. *)
let timeline (l : load) : (result * Qwait.timed) list =
  let rs = List.sort (fun a b -> compare a.seq b.seq) l.results in
  List.combine rs
    (Qwait.reconstruct
       (List.map
          (fun r -> { Qwait.seq = r.seq; submit = r.submit; ack = r.ack; done_ = r.done_ })
          rs))

let hit_ratio (s : Json.t) =
  match Json.member "cache" s with
  | Some c ->
    let h = int_of "hits" c and dh = int_of "disk_hits" c and mi = int_of "misses" c in
    float_of_int (h + dh) /. float_of_int (max 1 (h + dh + mi))
  | None -> 0.

(* [count] summed over the jobs [keep] selects, per second of their run
   time. *)
let rate tl ~keep ~count =
  let num, time =
    List.fold_left
      (fun (num, time) (r, t) -> if keep r then (num + count r, time +. t.Qwait.run) else (num, time))
      (0, 0.) tl
  in
  if time > 0. then float_of_int num /. time else 0.

let end_to_end plan ~setups ~rss (l : load) =
  let tl = timeline l in
  let lat = List.map (fun r -> r.done_ -. r.submit) l.results in
  let cells repeated =
    rate tl
      ~keep:(fun r ->
        let p = plan.(r.idx) in
        (p.kind = "sweep" || p.kind = "profile") && (p.repeat_of <> None) = repeated)
      ~count:(fun r -> List.length r.rows)
  in
  let first_rows =
    List.filter_map
      (fun r -> match r.row_ts with t :: _ -> Some (t -. r.submit) | [] -> None)
      l.results
  in
  [
    m "setup_s" "s" (Stat.median setups);
    m "cells_per_s" "1/s" (cells false);
    m "warm_cells_per_s" "1/s" (cells true);
    m "jobs_per_s" "1/s" (float_of_int (List.length l.results) /. (l.t1 -. l.t0));
    m "job_p50_ms" "ms" (ms (Stat.percentile 50. lat).Stat.value);
    m "job_p90_ms" "ms" (ms (Stat.percentile 90. lat).Stat.value);
    m "first_row_p50_ms" "ms" (p50 first_rows);
    m "peak_rss_mb" "MB" rss;
  ]

(* Per-layer metrics of the traced replay [tr]; [untraced] is the
   measured run over the same jobs. *)
let layers plan ~(untraced : load) (tr : load) =
  let tl = timeline tr in
  let kind_of r = plan.(r.idx).kind in
  let summary k r = match r.outcome with Ok s -> int_of k s | Error _ -> 0 in
  let engine kind k = rate tl ~keep:(fun r -> kind_of r = kind) ~count:(summary k) in
  let waits = List.map (fun (_, t) -> t.Qwait.queue_wait) tl in
  let rec gaps = function a :: (b :: _ as rest) -> (b -. a) :: gaps rest | _ -> [] in
  [
    m "serve.admission_p50_ms" "ms" (p50 (List.map (fun r -> r.ack -. r.submit) tr.results));
    m "serve.queue_wait_p50_ms" "ms" (p50 waits);
    m "serve.queue_wait_p90_ms" "ms" (ms (Stat.percentile 90. waits).Stat.value);
    m "serve.row_gap_p50_ms" "ms" (p50 (List.concat_map (fun r -> gaps r.row_ts) tr.results));
    m "serve.status_rtt_ms" "ms" (p50 tr.rtts);
    m "serve.cache_hit_ratio" "ratio" (hit_ratio tr.final_status);
  ]
  @ List.map
      (fun k ->
        m ("serve." ^ k ^ ".p50_ms") "ms"
          (p50
             (List.filter_map
                (fun r -> if kind_of r = k then Some (r.done_ -. r.submit) else None)
                tr.results)))
      kinds
  @ [
      m "harness.cells_per_s" "1/s" (engine "sweep" "executed");
      m "autotune.evals_per_s" "1/s" (engine "autotune" "evaluations");
      m "fuzz.cases_per_s" "1/s" (engine "fuzz" "ran");
      m "settle.rows_per_s" "1/s" (engine "settle" "rows");
      m "trace.overhead_frac" "ratio" (((tr.t1 -. tr.t0) /. (untraced.t1 -. untraced.t0)) -. 1.);
      m "trace.unattributed_frac" "ratio"
        (Qwait.idle_frac ~t0:tr.t0 ~t1:tr.t1 (List.map snd tl));
    ]

(* Share of the traced replay's wall time each job kind kept the daemon
   busy, and the idle rest. *)
let busy_shares plan (tr : load) =
  let tl = timeline tr in
  let wall = tr.t1 -. tr.t0 in
  let kind_time k =
    List.fold_left
      (fun acc (r, t) -> if plan.(r.idx).kind = k then acc +. t.Qwait.run else acc)
      0. tl
  in
  "daemon busy time by job kind (traced replay): "
  ^ String.concat ", "
      (List.map (fun k -> Printf.sprintf "%s %.1f%%" k (100. *. kind_time k /. wall)) kinds)
  ^ Printf.sprintf ", idle %.1f%%"
      (100. *. Qwait.idle_frac ~t0:tr.t0 ~t1:tr.t1 (List.map snd tl))

let run ~seed ~seconds ~trace ~dir ~zkbench : outcome =
  let refs = Hashtbl.create 32 in
  List.iter
    (fun (_, ws) -> List.iter (fun w -> Hashtbl.replace refs w.W.name (reference w)) ws)
    (by_suite ~suites ());
  (* far more jobs than a run completes; the deadline ends the load *)
  let plan = plan ~seed 20_000 in
  (* set-up reps: all but the last daemon are stopped straight away *)
  let spawned =
    List.init setup_reps (fun k ->
        let d, s = start ~zkbench ~dir:(Filename.concat dir (Printf.sprintf "d%d" k)) in
        if k < setup_reps - 1 then stop d;
        (d, s))
  in
  let d = fst (List.nth spawned (setup_reps - 1)) in
  let load, rss =
    Fun.protect
      ~finally:(fun () -> stop d)
      (fun () ->
        let t_end = now () +. float_of_int seconds in
        let l = drive d plan ~stop_at:(fun _ -> now () >= t_end) ~probe:false in
        (l, peak_rss_mb (string_of_int d.pid)))
  in
  let n = List.length load.results in
  (* the traced replay: the same plan prefix against a fresh daemon, with
     every row timed and a status round-trip after each job *)
  let traced =
    if not trace then None
    else begin
      let d2, _ = start ~zkbench ~dir:(Filename.concat dir "traced") in
      Some
        (Fun.protect
           ~finally:(fun () -> stop d2)
           (fun () -> drive d2 plan ~stop_at:(fun i -> i >= n) ~probe:true))
    end
  in
  let loads = load :: Option.to_list traced in
  let failed =
    List.fold_left
      (fun acc (l : load) ->
        let by_idx = Hashtbl.create 256 in
        List.iter (fun r -> Hashtbl.replace by_idx r.idx r) l.results;
        acc + List.length (List.filter (fun r -> not (job_ok ~refs plan by_idx r)) l.results))
      0 loads
  in
  let count k = List.length (List.filter (fun r -> plan.(r.idx).kind = k) load.results) in
  let p90 = Stat.percentile 90. (List.map (fun r -> r.done_ -. r.submit) load.results) in
  {
    attempted = List.fold_left (fun acc (l : load) -> acc + List.length l.results) 0 loads;
    failed;
    metrics =
      (match traced with
      | Some tr -> layers plan ~untraced:load tr
      | None -> end_to_end plan ~setups:(List.map snd spawned) ~rss load);
    notes =
      [
        Printf.sprintf "%d jobs (%s) on %d closed-loop clients; %d repeat earlier cells" n
          (String.concat ", " (List.map (fun k -> Printf.sprintf "%s %d" k (count k)) kinds))
          clients
          (List.length (List.filter (fun r -> plan.(r.idx).repeat_of <> None) load.results));
        Printf.sprintf "job latency: n=%d, %d samples beyond p90 (%s)" p90.Stat.n
          p90.Stat.beyond
          (if Stat.tail_ok p90 then "enough" else "too few");
        Printf.sprintf "shared compile cache hit ratio: %.3f" (hit_ratio load.final_status);
      ]
      @ Option.to_list (Option.map (busy_shares plan) traced);
  }
