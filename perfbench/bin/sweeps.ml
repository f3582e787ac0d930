(** The two sweep workloads.

    [sweep-levels] runs [Harness.run] over a seeded draw of programs x
    the six standard levels on risc0 + sp1: the pass pipelines do most
    of the work and the CPU timing model never runs (levels skip it).
    [sweep-single] runs the same draw x [baseline] + single-pass
    profiles: every cell runs the CPU timing model while each cell runs
    at most one pass, so it is the counterpart that exercises [cpu] and
    bypasses [passes].

    Every round is swept twice: a cold pass over a fresh on-disk compile
    cache (the cache's write path), then a warm pass through a new
    [Cache] over the same directory, so every artifact is a disk hit
    (the read path a user's second [sweepall] takes).

    The traced run rebuilds each cell from the public calls
    [Harness.measure_cell] makes, each wrapped in a span, on a pool of
    the same width; no span lives inside the libraries. *)

open Common
module H = Zkopt_harness.Harness
module Checkpoint = Zkopt_harness.Checkpoint
module Cell = Zkopt_harness.Cell
module Pool = Zkopt_exec.Pool
module Cache = Zkopt_exec.Cache
module Fingerprint = Zkopt_exec.Fingerprint
module Backend = Zkopt_backend.Backend
module Catalog = Zkopt_passes.Catalog
module Pass = Zkopt_passes.Pass
module Profile = Zkopt_core.Profile
module Measure = Zkopt_core.Measure
module Span = Perfkit.Span
module Stat = Perfkit.Stat

type kind = Levels | Singles

let setup_reps = 5

type round = { programs : W.t list; profiles : Profile.t list }

let cells (r : round) = List.length r.programs * List.length r.profiles

(* Rounds per cycle: a cycle sweeps every program of the suite once.
   sweep-levels splits the suite in two and runs all six levels on each
   half.  sweep-single splits it in four and gives each quarter
   [baseline] and a block of 16 of the 64 single passes, so a cycle also
   runs every single pass once: a run that left out the unroller, whose
   larger artifacts set the sweep's peak memory, would not be comparable
   with one that kept it. *)
let parts = function Levels -> 2 | Singles -> 4

(* The seeded draw, stratified by suite: each suite is shuffled and its
   programs dealt round-robin over the parts, the deal continuing from
   suite to suite so the parts stay within one program of each other.
   Round i sweeps part (i mod parts), so every cycle covers the whole
   suite exactly once and every run measures the same program mix —
   per-program cost spans two orders of magnitude, so a draw that left
   out npb-cg in one run and kept it in the next would swamp any change
   under test.  The seed decides which programs share a round. *)
let draw kind ~seed : int -> round =
  let rng = Random.State.make [| seed; 0x5eeb |] in
  let n = parts kind in
  let groups = Array.make n [] in
  let dealt = ref 0 in
  List.iter
    (fun (_, ws) ->
      List.iter
        (fun w ->
          let g = !dealt mod n in
          groups.(g) <- w :: groups.(g);
          incr dealt)
        (shuffle rng ws))
    (by_suite ());
  (* within a part, programs keep the harness's own (suite, name) order *)
  let groups =
    Array.map
      (List.sort (fun (a : W.t) (b : W.t) -> compare (a.W.suite, a.W.name) (b.W.suite, b.W.name)))
      groups
  in
  (* single passes are dealt over the parts in catalog order, which
     groups them by kind (inlining, memory, scalar, control flow, loops,
     interprocedural), so every block mixes every kind; the seed decides
     which block meets which part *)
  let blocks = Array.of_list (shuffle rng (List.init n Fun.id)) in
  fun i ->
    let profiles =
      match kind with
      | Levels -> List.map (fun l -> Profile.Level l) Catalog.all_levels
      | Singles ->
        Profile.Baseline
        :: List.filteri
             (fun j _ -> j mod n = blocks.(i mod n))
             (List.map (fun p -> Profile.Single_pass p) Catalog.swept_passes)
    in
    { programs = groups.(i mod n); profiles }

let harness_cfg ~pool ~cache ~ckpt (r : round) =
  {
    (H.default ~size) with
    H.programs = Some (List.map (fun w -> w.W.name) r.programs);
    profiles = Some r.profiles;
    jobs = nproc;
    cache = Some cache;
    pool = Some pool;
    checkpoint = Some ckpt;
    resume = false;
  }

(* ---- set-up ------------------------------------------------------------ *)

(* The set-up a user of [zkbench sweepall] waits through, run in a
   child process ([zkperf --setup-probe]): process start and library
   initialisation, a fresh pool, the draw, a fresh on-disk cache, and
   Harness.run's own prologue up to the moment the first cell starts on
   a worker.  The child reports that moment on its stdout, skips every
   cell through [stop] and exits. *)
let setup_probe kind ~seed ~dir =
  mkdir_p dir;
  let pool = Pool.create ~jobs:nproc in
  let r = draw kind ~seed 0 in
  let cache = Cache.create ~dir:(Filename.concat dir "cache") () in
  let first = Atomic.make true in
  let cfg =
    {
      (harness_cfg ~pool ~cache ~ckpt:(Filename.concat dir "cold.ckpt") r) with
      H.stop =
        (fun () ->
          if Atomic.exchange first false then begin
            print_string "started\n";
            flush stdout
          end;
          true);
    }
  in
  ignore (H.run cfg);
  Pool.shutdown pool;
  rm_rf dir

(* Spawn the probe and time it from spawn to its report. *)
let measure_setup ~workload ~seed ~dir k : float =
  let d = Filename.concat dir (Printf.sprintf "setup%d" k) in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let t0 = now () in
  let pid =
    Unix.create_process exe
      [| exe; "--setup-probe"; d; "--workload"; workload; "--seed"; string_of_int seed |]
      Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let line = try Some (input_line ic) with End_of_file -> None in
  let t1 = now () in
  close_in ic;
  let _, st = Unix.waitpid [] pid in
  match (line, st) with
  | Some "started", Unix.WEXITED 0 -> t1 -. t0
  | _ -> failwith "setup probe failed"

(* ---- untraced passes ----------------------------------------------------- *)

type pass = {
  wall : float;
  ncells : int;
  rows : string list;  (** sorted checkpoint rows *)
  lat : float list;  (** per-cell service time, s *)
  to_row : float list;  (** per cell: submission to row, s *)
  failed : int;
  stats : Cache.stats;
}

let started = Domain.DLS.new_key (fun () -> ref 0.)

(* One Harness.run pass over a round, timed from outside.  The harness
   polls [stop] on the worker domain just before a cell and calls
   [on_point] on that domain once the cell's row is queued, so the gap
   between the two is the cell's service time.  A cell is submitted at
   the start of its wave: the pass start for baselines and for rounds
   without them, the last baseline row for the rest (the harness submits
   its second wave once the baselines are done). *)
let harness_pass ~pool ~cache ~ckpt ~refs (r : round) : pass =
  let mu = Mutex.create () in
  let lat = ref [] and arrivals = ref [] in
  let s0 = Cache.stats cache in
  let t0 = now () in
  let cfg =
    {
      (harness_cfg ~pool ~cache ~ckpt r) with
      H.stop =
        (fun () ->
          Domain.DLS.get started := now ();
          false);
      on_point =
        Some
          (fun p ->
            let t = now () in
            let t_start = !(Domain.DLS.get started) in
            Mutex.lock mu;
            lat := (t -. t_start) :: !lat;
            arrivals := (String.equal p.Cell.profile "baseline", t) :: !arrivals;
            Mutex.unlock mu);
    }
  in
  (* a quarantined cell leaves no row, so [missing] counts it *)
  let degraded =
    match H.run cfg with
    | o -> List.length o.H.degraded
    | exception H.Budget_exceeded _ -> 0
  in
  let wall = now () -. t0 in
  let rows = sorted_rows ckpt in
  let wrong = List.length (List.filter (fun row -> not (row_ok refs row)) rows) in
  let missing = max 0 (cells r - List.length rows) in
  {
    wall;
    ncells = cells r;
    rows;
    lat = !lat;
    to_row =
      (let wave2 =
         List.fold_left (fun acc (base, t) -> if base then Float.max acc t else acc) t0 !arrivals
       in
       List.map (fun (base, t) -> t -. if base then t0 else wave2) !arrivals);
    failed = degraded + wrong + missing;
    stats = Cache.sub_stats (Cache.stats cache) s0;
  }

(* Rows present in one sorted list and not the other. *)
let row_diff (a : string list) (b : string list) : int =
  let rec go a b n =
    match (a, b) with
    | [], rest | rest, [] -> n + List.length rest
    | x :: a', y :: b' ->
      let c = compare x y in
      if c = 0 then go a' b' n else if c < 0 then go a' b (n + 1) else go a b' (n + 1)
  in
  go a b 0

(* Cold pass over a fresh cache directory, then the warm pass through a
   new Cache over it.  Checks: both passes' rows are correct and
   byte-identical, and the warm pass compiles nothing. *)
let round_pair ~pool ~refs ~dir i (r : round) : pass * pass * int =
  let d = Filename.concat dir (Printf.sprintf "r%d" i) in
  mkdir_p d;
  let cache_dir = Filename.concat d "cache" in
  let pass name =
    harness_pass ~pool ~cache:(Cache.create ~dir:cache_dir ())
      ~ckpt:(Filename.concat d (name ^ ".ckpt")) ~refs r
  in
  let cold = pass "cold" in
  let warm = pass "warm" in
  rm_rf d;
  (cold, warm, row_diff cold.rows warm.rows + warm.stats.Cache.misses)

(* ---- traced cell pipeline ------------------------------------------------ *)

type counters = {
  changed : int Atomic.t;  (** pass runs that changed the module *)
  instrs_after : int Atomic.t;  (** IR instructions after the pipeline *)
  cycles : int Atomic.t;  (** guest cycles, summed over backends *)
  static_instrs : int Atomic.t;
  spills : int Atomic.t;
}

let counters () =
  {
    changed = Atomic.make 0;
    instrs_after = Atomic.make 0;
    cycles = Atomic.make 0;
    static_instrs = Atomic.make 0;
    spills = Atomic.make 0;
  }

let add a n = ignore (Atomic.fetch_and_add a n)

let ir_instrs (m : Zkopt_ir.Modul.t) =
  List.fold_left
    (fun acc (f : Zkopt_ir.Func.t) ->
      List.fold_left
        (fun acc b -> acc + Zkopt_ir.Block.instr_count b)
        acc f.Zkopt_ir.Func.blocks)
    0 m.Zkopt_ir.Modul.funcs

let fuel = Zkopt_harness.Retry.default.Zkopt_harness.Retry.initial_fuel
let backends = H.backends_of (H.default ~size)

(* One cell, composed from the calls Harness.measure_cell makes (first
   attempt, same fuel), each wrapped in its layer's span.  Returns the
   optimized module's digest and the cell's point. *)
let traced_cell (c : counters) ~req ~cache ~writer (w : W.t) (profile : Profile.t)
    : string * Cell.point =
  let span name f = Span.with_ ~req name f in
  span "cell" (fun () ->
      let m = span "workloads.build" (fun () -> w.W.build size) in
      span "runtime.link" (fun () -> Zkopt_runtime.Runtime.link m);
      span "passes" (fun () ->
          let run config name =
            if span ("passes." ^ name) (fun () -> Pass.run_one ~config name m)
            then add c.changed 1
          in
          (match profile with
          | Profile.Baseline -> ()
          | Profile.Single_pass p -> run Pass.standard_config p
          | Profile.Level l -> List.iter (run (Catalog.level_config l)) (Catalog.pipeline l)
          | p -> invalid_arg ("traced_cell: profile " ^ Profile.name p));
          run Pass.standard_config "globaldce");
      span "ir.verify" (fun () -> Zkopt_ir.Verify.check m);
      add c.instrs_after (ir_instrs m);
      let digest = span "exec.fingerprint" (fun () -> Fingerprint.of_modul m) in
      let arts = Hashtbl.create 4 in
      let compiled_for (b : Backend.t) =
        match Hashtbl.find_opt arts b.Backend.schema with
        | Some a -> a
        | None ->
          let codec =
            {
              Cache.enc = (fun (a : Backend.compiled) -> a.Backend.encode ());
              dec = (fun s -> b.Backend.decode m s);
            }
          in
          let a =
            span "exec.cache" (fun () ->
                Cache.get_or_compile cache
                  ~digest:(digest ^ "+" ^ b.Backend.schema)
                  ~codec
                  ~compile:(fun () ->
                    span "riscv.codegen" (fun () -> b.Backend.compile m)))
          in
          add c.static_instrs a.Backend.static_instrs;
          add c.spills (List.fold_left (fun n (_, k) -> n + k) 0 a.Backend.spills);
          Hashtbl.replace arts b.Backend.schema a;
          a
      in
      let zk =
        List.map
          (fun (b : Backend.t) ->
            let a = compiled_for b in
            let vm = b.Backend.name in
            let r = span ("zkvm." ^ vm) (fun () -> a.Backend.measure ~vm ~fuel ()) in
            (match r.Backend.accounting with
            | Ok () -> ()
            | Error msg -> failwith ("accounting: " ^ msg));
            add c.cycles r.Backend.zk.Measure.cycles;
            r.Backend.zk)
          backends
      in
      let cpu =
        match profile with
        | Profile.Baseline | Profile.Single_pass _ ->
          List.find_map (fun b -> (compiled_for b).Backend.measure_cpu) backends
          |> Option.map (fun run -> span "cpu.timing" (fun () -> run ?fuel:(Some fuel) ?sink:None ()))
        | _ -> None
      in
      let point =
        {
          Cell.program = w.W.name;
          suite = w.W.suite;
          profile = Profile.name profile;
          zk;
          cpu;
        }
      in
      span "harness.checkpoint" (fun () ->
          ignore (Checkpoint.encode_point point);
          Checkpoint.async_append writer point);
      (digest, point))

type tpass = {
  window : float * float;
  tcells : ((W.t * Profile.t) * (string * Cell.point)) list;
      (** each cell with its digest and point *)
  waits : float list;  (** per-cell pool wait, s *)
  tfailed : int;
  trows : string list;  (** sorted checkpoint rows *)
  tstats : Cache.stats;
}

(* A traced pass: the round's cells in the harness's order (program-major,
   profile-minor, baselines in a first wave) on the shared pool.  Request
   ids number the cells from [req0]. *)
let traced_pass c ~pool ~cache ~ckpt ~req0 (r : round) : tpass =
  let writer = Checkpoint.async ckpt in
  let matrix =
    List.concat_map (fun w -> List.map (fun p -> (w, p)) r.profiles) r.programs
    |> List.mapi (fun i cell -> (req0 + i, cell))
  in
  let n = List.length matrix in
  let results = Array.make n None and waits = Array.make n 0. in
  let wave1, wave2 =
    List.partition (fun (_, (_, p)) -> p = Profile.Baseline) matrix
  in
  let t0 = now () in
  let submit (req, (w, p)) =
    let ts = now () in
    Pool.submit pool (fun () ->
        waits.(req - req0) <- now () -. ts;
        results.(req - req0) <-
          (try Some (traced_cell c ~req ~cache ~writer w p) with _ -> None))
  in
  List.iter submit wave1;
  Pool.wait pool;
  List.iter submit wave2;
  Pool.wait pool;
  Checkpoint.async_close writer;
  let t1 = now () in
  let cells, failed =
    List.fold_left
      (fun (ok, bad) (req, cell) ->
        match results.(req - req0) with
        | Some v -> ((cell, v) :: ok, bad)
        | None -> (ok, bad + 1))
      ([], 0) matrix
  in
  {
    window = (t0, t1);
    tcells = List.rev cells;
    waits = Array.to_list waits;
    tfailed = failed;
    trows = sorted_rows ckpt;
    tstats = Cache.stats cache;
  }

(* ---- metrics --------------------------------------------------------------- *)

let ms x = x *. 1000.

let sum_by f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs

let e2e_metrics ~setups (pairs : (pass * pass) list) : metric list =
  let colds = List.map fst pairs and warms = List.map snd pairs in
  let all = colds @ warms in
  let rate ps =
    float_of_int (List.fold_left (fun n p -> n + p.ncells) 0 ps) /. sum_by (fun p -> p.wall) ps
  in
  let nonempty xs = if xs = [] then [ nan ] else xs in
  let lat = nonempty (List.concat_map (fun p -> p.lat) all) in
  [
    m "setup_s" "s" (Stat.median setups);
    m "cells_per_s" "1/s" (rate colds);
    m "warm_cells_per_s" "1/s" (rate warms);
    m "jobs_per_s" "1/s" (rate all);
    m "job_p50_ms" "ms" (ms (Stat.percentile 50. lat).Stat.value);
    m "job_p90_ms" "ms" (ms (Stat.percentile 90. lat).Stat.value);
    m "first_row_p50_ms" "ms"
      (ms (Stat.median (nonempty (List.concat_map (fun p -> p.to_row) all))));
    m "peak_rss_mb" "MB" (peak_rss_mb "self");
  ]

let run_untraced kind ~workload ~seed ~seconds ~dir ~refs : outcome =
  let setups = List.init setup_reps (measure_setup ~workload ~seed ~dir) in
  let pool = Pool.create ~jobs:nproc in
  let rnd = draw kind ~seed in
  let deadline = now () +. float_of_int seconds in
  (* whole cycles only, so every run sweeps whole suites: at least one,
     then another while the last one's length still fits the time left *)
  let rec loop i t_cycle acc =
    let t = now () in
    if i mod parts kind = 0 && i > 0 && t +. (t -. t_cycle) > deadline then List.rev acc
    else
      let t_cycle = if i mod parts kind = 0 then t else t_cycle in
      loop (i + 1) t_cycle (round_pair ~pool ~refs ~dir i (rnd i) :: acc)
  in
  let rounds = loop 0 (now ()) [] in
  Pool.shutdown pool;
  let pairs = List.map (fun (c, w, _) -> (c, w)) rounds in
  let all = List.concat_map (fun (c, w) -> [ c; w ]) pairs in
  let attempted = List.fold_left (fun n p -> n + p.ncells) 0 all in
  let failed =
    List.fold_left (fun n p -> n + p.failed) 0 all
    + List.fold_left (fun n (_, _, d) -> n + d) 0 rounds
  in
  let lat = List.concat_map (fun p -> p.lat) all in
  let p90 = Stat.percentile 90. (if lat = [] then [ 0. ] else lat) in
  let hits ps =
    Cache.hit_rate_pct
      (List.fold_left
         (fun (a : Cache.stats) p ->
           let s = p.stats in
           {
             a with
             Cache.hits = a.Cache.hits + s.Cache.hits;
             disk_hits = a.Cache.disk_hits + s.Cache.disk_hits;
             misses = a.Cache.misses + s.Cache.misses;
           })
         Cache.zero_stats ps)
  in
  {
    attempted;
    failed;
    metrics = e2e_metrics ~setups pairs;
    notes =
      [
        Printf.sprintf "%d rounds of a %d-round cycle, %d cells measured"
          (List.length rounds) (parts kind) attempted;
        "cells/s per pass (cold, warm): "
        ^ String.concat " "
            (List.map
               (fun (c, w) ->
                 Printf.sprintf "%.1f,%.1f" (float_of_int c.ncells /. c.wall)
                   (float_of_int w.ncells /. w.wall))
               pairs);
        Printf.sprintf "cell latency: n=%d, %d samples beyond p90 (%s)" p90.Stat.n
          p90.Stat.beyond
          (if Stat.tail_ok p90 then "enough" else "too few");
        Printf.sprintf "compile cache hit rate: cold %.1f%%, warm %.1f%%"
          (hits (List.map fst pairs)) (hits (List.map snd pairs));
      ];
  }

(* Layer of a span, for the share table: pass spans fold into [passes],
   the per-backend zkVM runs into [zkvm]. *)
let layer_of name =
  match String.index_opt name '.' with
  | Some i -> (
    match String.sub name 0 i with
    | "passes" -> "passes"
    | "zkvm" -> "zkvm"
    | _ -> name)
  | None -> name

(* Span self-times must account for the cells they sit in: at most this
   share of the cells' time may fall outside every layer span. *)
let conservation_tol = 0.05

let run_traced kind ~seed ~dir ~refs ~pass_names : outcome =
  let pool = Pool.create ~jobs:nproc in
  let rnd = draw kind ~seed in
  (* the first two rounds: a whole cycle of sweep-levels, half of one
     of sweep-single *)
  let rounds = [ rnd 0; rnd 1 ] in
  (* untraced reference: the same rounds through Harness.run *)
  let untraced = List.mapi (fun i r -> round_pair ~pool ~refs ~dir i r) rounds in
  let uwall = sum_by (fun (c, w, _) -> c.wall +. w.wall) untraced in
  let c = counters () in
  ignore (Span.collect ());
  let req = ref 0 in
  let traced =
    List.mapi
      (fun i r ->
        let d = Filename.concat dir (Printf.sprintf "t%d" i) in
        mkdir_p d;
        let cache_dir = Filename.concat d "cache" in
        let pass name =
          let p =
            traced_pass c ~pool ~cache:(Cache.create ~dir:cache_dir ())
              ~ckpt:(Filename.concat d (name ^ ".ckpt")) ~req0:!req r
          in
          req := !req + cells r;
          p
        in
        let cold = pass "cold" in
        let warm = pass "warm" in
        rm_rf d;
        (cold, warm))
      rounds
  in
  let spans = Span.collect () in
  let passes = List.concat_map (fun (a, b) -> [ a; b ]) traced in
  let windows = List.map (fun p -> p.window) passes in
  let twall = sum_by (fun (a, b) -> b -. a) windows in
  (* correctness: traced rows equal the untraced passes' rows, the warm
     traced pass compiles nothing and repeats the cold one's digests, and
     every cell matches Harness.measure_cell on digest and row *)
  let failed = ref 0 in
  let same (_, (d1, p1)) (_, (d2, p2)) =
    String.equal d1 d2
    && String.equal (Checkpoint.encode_point p1) (Checkpoint.encode_point p2)
  in
  List.iter2
    (fun (ucold, uwarm, d) (tcold, twarm) ->
      failed :=
        !failed + ucold.failed + uwarm.failed + d + tcold.tfailed + twarm.tfailed
        + row_diff ucold.rows tcold.trows
        + row_diff ucold.rows twarm.trows
        + twarm.tstats.Cache.misses
        + (if List.length tcold.tcells = List.length twarm.tcells
              && List.for_all2 same tcold.tcells twarm.tcells
           then 0
           else 1))
    untraced traced;
  let tcells = List.concat_map (fun p -> p.tcells) passes in
  let hcfg = H.default ~size and hcache = Cache.create () in
  let mismatches = Atomic.make 0 in
  List.iter
    (fun ((w, p), (digest, point)) ->
      Pool.submit pool (fun () ->
          let agrees =
            match H.measure_cell hcfg hcache w p with
            | hp, _, _ ->
              String.equal digest
                (Fingerprint.of_modul
                   (Measure.prepare_ir ~build:(fun () -> w.W.build size) p))
              && String.equal (Checkpoint.encode_point hp) (Checkpoint.encode_point point)
            | exception _ -> false
          in
          if not agrees then add mismatches 1))
    (List.concat_map (fun (cold, _) -> cold.tcells) traced);
  Pool.wait pool;
  Pool.shutdown pool;
  failed := !failed + Atomic.get mismatches;
  let ncells = float_of_int (List.length tcells) in
  let self = Span.self_times spans and totals = Span.totals spans in
  let get tbl k = Option.value ~default:0. (List.assoc_opt k tbl) in
  let per_cell x = ms x /. ncells in
  (* conservation: a well-formed tree, and layer spans covering all but
     [conservation_tol] of the cells' time *)
  let cell_time = get totals "cell" in
  let conserved =
    Span.misnested spans = []
    && get self "cell" <= conservation_tol *. cell_time
    && cell_time <= float_of_int nproc *. twall *. 1.01
  in
  if not conserved then incr failed;
  let covered =
    List.fold_left
      (fun acc (t0, t1) ->
        acc +. Span.covered ~t0 ~t1 ~counts:(fun s -> s.Span.name <> "cell") spans)
      0. windows
  in
  let hits, disk_hits, misses =
    List.fold_left
      (fun (h, d, mi) p ->
        let s = p.tstats in
        (h + s.Cache.hits, d + s.Cache.disk_hits, mi + s.Cache.misses))
      (0, 0, 0) passes
  in
  let waits = List.concat_map (fun p -> p.waits) passes in
  let count a = float_of_int (Atomic.get a) /. ncells in
  let metrics =
    [
      m "workloads.build_ms" "ms/cell" (per_cell (get totals "workloads.build"));
      m "runtime.link_ms" "ms/cell" (per_cell (get totals "runtime.link"));
      m "passes.ms" "ms/cell" (per_cell (get totals "passes"));
    ]
    @ List.map
        (fun p ->
          m ("passes." ^ p ^ ".ms") "ms/cell" (per_cell (get totals ("passes." ^ p))))
        pass_names
    @ [
        m "passes.changed" "count/cell" (count c.changed);
        m "ir.instrs_after" "count/cell" (count c.instrs_after);
        m "ir.verify_ms" "ms/cell" (per_cell (get totals "ir.verify"));
        m "exec.fingerprint_ms" "ms/cell" (per_cell (get totals "exec.fingerprint"));
        m "exec.cache_ms" "ms/cell" (per_cell (get self "exec.cache"));
        m "exec.cache_hit_ratio" "ratio"
          (float_of_int (hits + disk_hits) /. float_of_int (max 1 (hits + disk_hits + misses)));
        m "exec.cache_disk_hits" "count" (float_of_int disk_hits);
        m "exec.pool_wait_ms" "ms/cell" (per_cell (sum_by Fun.id waits));
        m "riscv.codegen_ms" "ms/cell" (per_cell (get totals "riscv.codegen"));
        m "riscv.static_instrs" "count/cell" (count c.static_instrs);
        m "riscv.spills" "count/cell" (count c.spills);
        m "zkvm.risc0_ms" "ms/cell" (per_cell (get totals "zkvm.risc0"));
        m "zkvm.sp1_ms" "ms/cell" (per_cell (get totals "zkvm.sp1"));
        m "zkvm.cycles" "count/cell" (count c.cycles);
        m "cpu.timing_ms" "ms/cell" (per_cell (get totals "cpu.timing"));
        m "harness.checkpoint_ms" "ms/cell" (per_cell (get totals "harness.checkpoint"));
        m "trace.overhead_frac" "ratio" ((twall /. uwall) -. 1.);
        m "trace.unattributed_frac" "ratio"
          (1. -. (covered /. (float_of_int nproc *. twall)));
      ]
  in
  (* layer shares of the traced cells' time, by self time *)
  let shares =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (n, v) ->
        let l = layer_of n in
        Hashtbl.replace tbl l (v +. Option.value ~default:0. (Hashtbl.find_opt tbl l)))
      self;
    Hashtbl.fold (fun l v acc -> (l, v) :: acc) tbl []
    |> List.sort (fun (_, a) (_, b) -> compare b a)
    |> List.map (fun (l, v) -> Printf.sprintf "%s %.1f%%" l (100. *. v /. cell_time))
  in
  let top_passes =
    List.filter_map
      (fun (n, v) ->
        if String.length n > 7 && String.sub n 0 7 = "passes." then
          Some (n, v /. Float.max 1e-9 (get totals "passes"))
        else None)
      totals
    |> List.sort (fun (_, a) (_, b) -> compare b a)
    |> List.filter (fun (_, s) -> s >= 0.01)
    |> List.map (fun (n, s) -> Printf.sprintf "%s %.1f%%" n (100. *. s))
  in
  let trace_path = Filename.concat dir "trace.json" in
  Out_channel.with_open_bin trace_path (fun oc ->
      output_string oc (Span.to_chrome spans));
  {
    (* untraced passes, traced passes, and the measure_cell re-check *)
    attempted = (2 * List.length tcells) + (List.length tcells / 2);
    failed = !failed;
    metrics;
    notes =
      [
        Printf.sprintf "traced %d cells on %d domains; %d spans; conservation %s (tolerance %.0f%%)"
          (List.length tcells) nproc (List.length spans)
          (if conserved then "ok" else "FAILED")
          (100. *. conservation_tol);
        "layer shares (self time / cell time): " ^ String.concat ", " shares;
        "passes >= 1% of pass time: " ^ String.concat ", " top_passes;
      ];
  }
