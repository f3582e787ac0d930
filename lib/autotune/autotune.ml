(** Parallel genetic autotuner over pass sequences (the paper's RQ2
    OpenTuner setup, at full budget).

    Genomes are pass-name sequences up to depth 20; fitness is the zkVM
    cycle count — cheap and strongly correlated with both execution and
    proving time (§4.1).  The search is generational: each generation
    breeds [population] children from the survivor pool (tournament
    selection, one-point crossover, insert/delete/replace/swap
    mutations), evaluates the whole batch in parallel over a
    {!Zkopt_exec.Pool}, and merges results back in submission order.

    Three properties distinguish this engine from a naive GA loop:

    - {b Determinism independent of [jobs].}  The RNG stream is consumed
      only on the coordinating domain (breeding), never during
      evaluation; batch results land in an index-keyed slot array, so
      survivor selection sees the same verdicts in the same order no
      matter how the pool interleaved the work.  A fixed seed therefore
      produces byte-identical checkpoint rows at any [--jobs].
    - {b Prefix-cached compilation.}  Applying a pipeline is
      left-to-right, so the module after [p1; p2; p3] extends the module
      after [p1; p2].  Partially-optimized modules are content-addressed
      by {!Zkopt_exec.Fingerprint.of_pipeline} (program salt + pass
      prefix) in a shared {!Zkopt_exec.Cache}: crossover children that
      inherit a parent's prefix — the common case — skip straight to the
      first novel pass.  Measured scores are additionally recorded per
      (target, structural fingerprint), so a genome whose final module
      is structurally identical to one already measured costs nothing
      ([dedup]), and a genome whose already-scored {e prefix} is no
      better than the current worst survivor can be discarded without
      measuring ([prune] — a heuristic: a suffix could still help, so
      pruning trades a little search fidelity for a lot of budget).
    - {b Kill-safe checkpointing.}  Each generation appends one row per
      child plus a generation summary row to a {!Zkopt_exec.Rowlog}
      (framing in DESIGN.md, "Row logs"); {!search} with
      [resume = true] replays completed generations from the row log
      (consuming the identical RNG stream) and resumes live evaluation
      at the first incomplete generation, so an interrupted run
      continues byte-identically. *)

open Zkopt_passes
module Pool = Zkopt_exec.Pool
module Cache = Zkopt_exec.Cache
module Fingerprint = Zkopt_exec.Fingerprint
module Rowlog = Zkopt_exec.Rowlog
module Error = Zkopt_harness.Error
module Backend = Zkopt_backend.Backend
module Modul = Zkopt_ir.Modul

type genome = string list

type individual = {
  genome : genome;
  fitness : int;  (* cycles; lower is better *)
}

type result = {
  best : individual;
  top5 : individual list;
  bottom5 : individual list;
  evaluations : int;
  history : int list;  (* best fitness per generation *)
}

let max_depth = 20

let gene_pool = Catalog.swept_passes

let random_gene rng = List.nth gene_pool (Random.State.int rng (List.length gene_pool))

let random_genome rng =
  let len = 1 + Random.State.int rng max_depth in
  List.init len (fun _ -> random_gene rng)

let mutate rng (g : genome) : genome =
  let g = Array.of_list g in
  let n = Array.length g in
  match Random.State.int rng 4 with
  | 0 when n < max_depth ->
    (* insert *)
    let pos = Random.State.int rng (n + 1) in
    Array.to_list (Array.concat [ Array.sub g 0 pos; [| random_gene rng |];
                                  Array.sub g pos (n - pos) ])
  | 1 when n > 1 ->
    (* delete *)
    let pos = Random.State.int rng n in
    Array.to_list (Array.append (Array.sub g 0 pos) (Array.sub g (pos + 1) (n - pos - 1)))
  | 2 ->
    (* replace *)
    let pos = Random.State.int rng n in
    g.(pos) <- random_gene rng;
    Array.to_list g
  | _ ->
    if n >= 2 then begin
      let i = Random.State.int rng n and j = Random.State.int rng n in
      let t = g.(i) in
      g.(i) <- g.(j);
      g.(j) <- t
    end;
    Array.to_list g

let crossover rng (a : genome) (b : genome) : genome =
  let a = Array.of_list a and b = Array.of_list b in
  let cut_a = Random.State.int rng (Array.length a + 1) in
  let cut_b = Random.State.int rng (Array.length b + 1) in
  let child =
    Array.to_list (Array.append (Array.sub a 0 cut_a)
                     (Array.sub b cut_b (Array.length b - cut_b)))
  in
  match child with
  | [] -> [ random_gene rng ]
  | c when List.length c > max_depth ->
    List.filteri (fun i _ -> i < max_depth) c
  | c -> c

(* ------------------------------------------------------------------ *)
(* Failure classification                                              *)
(* ------------------------------------------------------------------ *)

(** Is [e] a failure mode a pathological pass sequence is {e expected}
    to produce (fuel exhaustion, compile/lowering errors, traps,
    ill-formed IR)?  Those score [max_int] and the search moves on.
    Everything that indicates a bug in the toolchain itself — checksum
    divergence, accounting violations, assertion failures,
    [Stack_overflow], unclassified exceptions — must propagate: folding
    a miscompile into a bad fitness score would make the autotuner
    silently search {e around} soundness bugs. *)
let expected_failure (e : exn) : bool =
  match e with
  | Stack_overflow | Assert_failure _ | Out_of_memory -> false
  | e -> (
    match Error.classify e with
    | Error.Out_of_fuel _ | Error.Emulator_trap _ | Error.Decode_error _
    | Error.Asm_error _ | Error.Isel_unsupported _ | Error.Ill_formed _ ->
      true
    | Error.Miscompile _ | Error.Accounting_violation _ | Error.Uncaught _ ->
      false)

(* ------------------------------------------------------------------ *)
(* Objective targets                                                   *)
(* ------------------------------------------------------------------ *)

(** One measurement axis of the objective.  [tname] identifies the axis
    in score records and checkpoint rows; [pname] salts the prefix cache
    (targets over the same program share partially-optimized modules
    even when they price on different backends); [measure] receives a
    fully prepared (linked, optimized, pruned, verified) module plus its
    structural fingerprint and returns cycles. *)
type target = {
  tname : string;
  pname : string;
  weight : float;  (** contribution to the combined fitness *)
  build : unit -> Modul.t;
  measure : fp:string -> Modul.t -> int;
}

(** A target pricing [program] on backend [b], optionally compiling
    through the shared artifact [cache] (keyed structurally, so two
    genomes producing identical modules share one compiled artifact).
    An accounting violation raises {!Error.Accounting} — a conservation
    bug is never a legitimate fitness. *)
let backend_target ?fuel ?cache ?(weight = 1.0) ~(program : string)
    ~(build : unit -> Modul.t) (b : Backend.t) : target =
  let compiled ~fp (m : Modul.t) =
    match cache with
    | None -> b.Backend.compile m
    | Some cache ->
      Cache.get_or_compile cache
        ~digest:(fp ^ "+" ^ b.Backend.schema)
        ~codec:
          {
            Cache.enc = (fun (c : Backend.compiled) -> c.Backend.encode ());
            dec = (fun s -> b.Backend.decode m s);
          }
        ~compile:(fun () -> b.Backend.compile m)
  in
  let measure ~fp m =
    let c = compiled ~fp m in
    let r = c.Backend.measure ~vm:b.Backend.name ?fuel () in
    (match r.Backend.accounting with
    | Ok () -> ()
    | Error msg -> raise (Error.Accounting msg));
    r.Backend.zk.Zkopt_core.Measure.cycles
  in
  {
    tname = program ^ "@" ^ b.Backend.name;
    pname = program;
    weight;
    build;
    measure;
  }

(** A target pricing [program]'s full settlement cost on backend [b]:
    fitness is {!Zkopt_settle.Settle.report.settled_cost} (prover +
    aggregation + verification gas, integer micro-units) instead of raw
    cycles.  Same artifact-cache discipline as {!backend_target}, so the
    two objectives share compiled artifacts — a tune can be re-scored
    under either without recompiling. *)
let settled_target ?fuel ?cache ?(weight = 1.0) ?arity ?weights
    ~(program : string) ~(build : unit -> Modul.t) (b : Backend.t) : target =
  let base = backend_target ?fuel ?cache ~weight ~program ~build b in
  let measure ~fp m =
    let c =
      match cache with
      | None -> b.Backend.compile m
      | Some cache ->
        Cache.get_or_compile cache
          ~digest:(fp ^ "+" ^ b.Backend.schema)
          ~codec:
            {
              Cache.enc = (fun (c : Backend.compiled) -> c.Backend.encode ());
              dec = (fun s -> b.Backend.decode m s);
            }
          ~compile:(fun () -> b.Backend.compile m)
    in
    let r = c.Backend.measure ~vm:b.Backend.name ?fuel () in
    (match r.Backend.accounting with
    | Ok () -> ()
    | Error msg -> raise (Error.Accounting msg));
    (Zkopt_settle.Settle.price ?arity ?weights ~backend:b.Backend.name r)
      .Zkopt_settle.Settle.settled_cost
  in
  { base with tname = program ^ "@" ^ b.Backend.name ^ "+settled"; measure }

(** The multi-workload objective: one target per workload on backend
    [b], weighted by the reciprocal of each workload's baseline cycle
    count (normalized to the mean baseline) so a sequence is scored by
    the {e cells-weighted} speedup it delivers across the set rather
    than by whichever workload happens to burn the most cycles. *)
let cells_weighted ?fuel ?cache (b : Backend.t)
    (workloads : (string * (unit -> Modul.t)) list) : target list =
  let raw =
    List.map
      (fun (program, build) -> backend_target ?fuel ?cache ~program ~build b)
      workloads
  in
  let baselines =
    List.map
      (fun t ->
        let m = t.build () in
        Zkopt_runtime.Runtime.link m;
        ignore (Pass.run_one "globaldce" m);
        Zkopt_ir.Verify.check m;
        float_of_int (t.measure ~fp:(Fingerprint.of_modul m) m))
      raw
  in
  let mean =
    List.fold_left ( +. ) 0.0 baselines
    /. float_of_int (max 1 (List.length baselines))
  in
  List.map2
    (fun t base ->
      { t with weight = (if base > 0.0 then mean /. base else 1.0) })
    raw baselines

(* ------------------------------------------------------------------ *)
(* Prefix-cached pipeline application                                  *)
(* ------------------------------------------------------------------ *)

(** The module after applying [List.rev rev_prefix] to [pname]'s fresh
    linked build, memoized per prefix in [cache].  Each extension clones
    the cached parent before running its one new pass, so cached modules
    are never mutated; recursion happens inside [get_or_compile], which
    is deadlock-free because digests shorten strictly toward the root
    (single-flight waits form a DAG).  Modules handed out by this
    function are shared — callers must {!Zkopt_ir.Clone} before
    mutating. *)
let rec module_at (cache : Modul.t Cache.t) ~(pname : string)
    ~(build : unit -> Modul.t) (rev_prefix : string list) : Modul.t =
  let digest = Fingerprint.of_pipeline ~salt:pname (List.rev rev_prefix) in
  Cache.get_or_compile cache ~digest ~compile:(fun () ->
      match rev_prefix with
      | [] ->
        let m = build () in
        Zkopt_runtime.Runtime.link m;
        m
      | p :: rest ->
        let m = Zkopt_ir.Clone.modul (module_at cache ~pname ~build rest) in
        ignore (Pass.run_one ~config:Pass.standard_config p m);
        m)

(* ------------------------------------------------------------------ *)
(* Evaluation verdicts                                                 *)
(* ------------------------------------------------------------------ *)

(** One recorded measurement: target axis, structural fingerprint of the
    post-pipeline (pre-prune) module, cycles. *)
type score = { starget : string; sfp : string; scycles : int }

(** How one genome was scored: ['m']easured, ['d']eduped against
    recorded scores, ['p']runed from a prefix estimate, or ['f']ailed
    (expected failure on every path). *)
type verdict = { vkind : char; vfitness : int; vscores : score list }

(** Weighted combination of per-target cycles into one fitness.  Any
    failed axis fails the genome; saturates at [max_int] on overflow. *)
let combine (ws : (float * int) list) : int =
  if List.exists (fun (_, c) -> c = max_int) ws then max_int
  else
    let f =
      List.fold_left (fun acc (w, c) -> acc +. (w *. float_of_int c)) 0.0 ws
    in
    if Float.is_nan f || f >= float_of_int max_int then max_int
    else int_of_float (Float.round f)

(** Evaluate one genome against every target.  Pure reads of [scores]
    (frozen during a batch) plus prefix-cache traffic; safe to run from
    many domains at once, and deterministic per genome regardless of
    batch interleaving. *)
let eval_child ~(pcache : Modul.t Cache.t)
    ~(scores : (string * string, int) Hashtbl.t) ~(prune : bool)
    ~(threshold : int option) ~(targets : target list) (g : genome) : verdict
    =
  let rev = List.rev g in
  let prepared =
    List.map
      (fun t ->
        match module_at pcache ~pname:t.pname ~build:t.build rev with
        | m -> Some (t, m, Fingerprint.of_modul m)
        | exception e when expected_failure e -> None)
      targets
  in
  if List.exists Option.is_none prepared then
    { vkind = 'f'; vfitness = max_int; vscores = [] }
  else
    let lookups =
      List.map
        (fun o ->
          let t, m, fp = Option.get o in
          (t, m, fp, Hashtbl.find_opt scores (t.tname, fp)))
        prepared
    in
    if List.for_all (fun (_, _, _, r) -> Option.is_some r) lookups then
      (* every axis already measured a structurally identical module *)
      let vscores =
        List.map
          (fun (t, _, fp, r) ->
            { starget = t.tname; sfp = fp; scycles = Option.get r })
          lookups
      in
      let fit =
        combine (List.map (fun (t, _, _, r) -> (t.weight, Option.get r)) lookups)
      in
      { vkind = 'd'; vfitness = fit; vscores }
    else
      let prune_estimate =
        match threshold with
        | Some th when prune ->
          (* estimate each unmeasured axis from its longest already-scored
             proper prefix; if every axis has an exact score or estimate
             and the combination is no better than the worst survivor,
             discard without measuring *)
          let est_for (t, _, _, recorded) =
            match recorded with
            | Some c -> Some c
            | None -> (
              let rec walk rp =
                let m = module_at pcache ~pname:t.pname ~build:t.build rp in
                match
                  Hashtbl.find_opt scores (t.tname, Fingerprint.of_modul m)
                with
                | Some c -> Some c
                | None -> ( match rp with [] -> None | _ :: tl -> walk tl)
              in
              match rev with
              | [] -> None
              | _ :: tl -> ( try walk tl with e when expected_failure e -> None))
          in
          let ests = List.map est_for lookups in
          if List.for_all Option.is_some ests then
            let fit =
              combine
                (List.map2
                   (fun (t, _, _, _) e -> (t.weight, Option.get e))
                   lookups ests)
            in
            if fit >= th then Some fit else None
          else None
        | _ -> None
      in
      match prune_estimate with
      | Some fit -> { vkind = 'p'; vfitness = fit; vscores = [] }
      | None ->
        let vscores =
          List.map
            (fun (t, m, fp, recorded) ->
              match recorded with
              | Some c -> { starget = t.tname; sfp = fp; scycles = c }
              | None ->
                let c =
                  match
                    (* the cached module is shared: prune + verify +
                       measure on a private clone *)
                    let m' = Zkopt_ir.Clone.modul m in
                    ignore (Pass.run_one "globaldce" m');
                    Zkopt_ir.Verify.check m';
                    t.measure ~fp:(Fingerprint.of_modul m') m'
                  with
                  | c -> c
                  | exception e when expected_failure e -> max_int
                in
                { starget = t.tname; sfp = fp; scycles = c })
            lookups
        in
        let fit =
          combine
            (List.map2 (fun (t, _, _, _) s -> (t.weight, s.scycles)) lookups
               vscores)
        in
        { vkind = (if fit = max_int then 'f' else 'm'); vfitness = fit; vscores }

(* ------------------------------------------------------------------ *)
(* Checkpoint row codec                                                *)
(* ------------------------------------------------------------------ *)

(* One row per evaluated child:
     A \t gen \t idx \t kind \t fitness \t gene,gene,... \t scores \t .
   where scores is "-" or ";"-joined "tname=fp:cycles" entries, and the
   trailing "." detects torn tails.  One summary row per generation:
     G \t gen \t evals \t best \t .
   A generation without its G row is treated as never having run. *)

let row_of_child ~gen ~idx (g : genome) (v : verdict) : string =
  let details =
    match v.vscores with
    | [] -> "-"
    | ss ->
      String.concat ";"
        (List.map
           (fun s -> Printf.sprintf "%s=%s:%d" s.starget s.sfp s.scycles)
           ss)
  in
  Printf.sprintf "A\t%d\t%d\t%c\t%d\t%s\t%s\t." gen idx v.vkind v.vfitness
    (String.concat "," g) details

let row_of_generation ~gen ~evals ~best : string =
  Printf.sprintf "G\t%d\t%d\t%d\t." gen evals best

let parse_child_row (line : string) :
    (int * int * char * int * genome * score list) option =
  match String.split_on_char '\t' line with
  | [ "A"; gen; idx; kind; fitness; genome; details; "." ] -> (
    try
      let kind = if String.length kind = 1 then kind.[0] else raise Exit in
      let scores =
        if String.equal details "-" then []
        else
          List.map
            (fun part ->
              match (String.index_opt part '=', String.rindex_opt part ':') with
              | Some ei, Some ci when ei < ci ->
                {
                  starget = String.sub part 0 ei;
                  sfp = String.sub part (ei + 1) (ci - ei - 1);
                  scycles =
                    int_of_string
                      (String.sub part (ci + 1) (String.length part - ci - 1));
                }
              | _ -> raise Exit)
            (String.split_on_char ';' details)
      in
      Some
        ( int_of_string gen,
          int_of_string idx,
          kind,
          int_of_string fitness,
          String.split_on_char ',' genome,
          scores )
    with _ -> None)
  | _ -> None

let parse_generation_row (line : string) : int option =
  match String.split_on_char '\t' line with
  | [ "G"; gen; _evals; _best; "." ] -> int_of_string_opt gen
  | _ -> None

(** Replay tables from a row log: completed generations (those with a
    [G] row) and child verdicts keyed by [(gen, idx)], keep-last.
    Undecodable lines — a torn tail from a kill — are skipped. *)
let load_checkpoint (path : string) :
    (int, unit) Hashtbl.t * (int * int, char * int * genome * score list) Hashtbl.t
    =
  let greplay = Hashtbl.create 16 in
  let areplay = Hashtbl.create 64 in
  List.iter
    (function
      | `A (gen, idx, kind, fitness, genome, scores) ->
        Hashtbl.replace areplay (gen, idx) (kind, fitness, genome, scores)
      | `G gen -> Hashtbl.replace greplay gen ())
    (Rowlog.load
       (fun line ->
         match parse_child_row line with
         | Some a -> Some (`A a)
         | None -> Option.map (fun g -> `G g) (parse_generation_row line))
       path);
  (greplay, areplay)

(* ------------------------------------------------------------------ *)
(* The generational loop                                               *)
(* ------------------------------------------------------------------ *)

type loop_outcome = {
  lresult : result option;  (** [None] only if no generation ran *)
  lcompleted : bool;  (** false iff [stop] ended the search early *)
  lreplayed : int;
  ldedup : int;
  lpruned : int;
  lmeasured : int;
  lfailed : int;
}

(** The deterministic coordinator: breeds each generation from the RNG
    stream (consumed only here), hands the batch to [eval_batch], and
    merges verdicts in index order.  With a [checkpoint] path, every
    live row is appended to the log before it reaches [on_row]; with
    [resume], generations already completed in the log are replayed
    (same RNG stream, recorded verdicts, no evaluation) before live
    search resumes, and without it the log starts empty. *)
let genloop ~seed ~population ~iterations ~(stop : unit -> bool)
    ~(checkpoint : string option) ~(resume : bool)
    ~(on_row : (string -> unit) option)
    ~(eval_batch : threshold:int option -> genome list -> verdict list)
    ~(record : verdict -> unit) : loop_outcome =
  let population = max 1 population and iterations = max 1 iterations in
  let rng = Random.State.make [| seed; 0x5eed |] in
  let greplay, areplay =
    match checkpoint with
    | Some path when resume -> load_checkpoint path
    | _ -> (Hashtbl.create 1, Hashtbl.create 1)
  in
  let log = Option.map (Rowlog.create ~fresh:(not resume)) checkpoint in
  let emit ~live row =
    if live then Option.iter (fun l -> Rowlog.append l row) log;
    Option.iter (fun f -> f row) on_row
  in
  let ind_cmp a b = compare (a.fitness, a.genome) (b.fitness, b.genome) in
  let take n l = List.filteri (fun i _ -> i < n) l in
  let pop = ref [] in  (* best-first survivors, length <= population *)
  let everyone = ref [] in
  let history = ref [] in
  let evals = ref 0 in
  let gen = ref 0 in
  let replayed = ref 0 in
  let dedup = ref 0 and pruned = ref 0 and measured = ref 0 and failed = ref 0 in
  let completed = ref true in
  let replay_active = ref true in
  (Fun.protect ~finally:(fun () -> Option.iter Rowlog.close log) @@ fun () ->
   try
     while !evals < iterations do
       if stop () then begin
         completed := false;
         raise Exit
       end;
       let n = min population (iterations - !evals) in
       (* breed first, unconditionally: the RNG stream must advance the
          same way whether this generation replays or runs live *)
       let genomes =
         if !gen = 0 then begin
           let a = Array.make n [] in
           for i = 0 to n - 1 do
             a.(i) <- random_genome rng
           done;
           Array.to_list a
         end
         else begin
           let parr = Array.of_list !pop in
           let np = Array.length parr in
           let tournament () =
             let a = parr.(Random.State.int rng np)
             and b = parr.(Random.State.int rng np) in
             if a.fitness <= b.fitness then a else b
           in
           let a = Array.make n [] in
           for i = 0 to n - 1 do
             let p1 = tournament () and p2 = tournament () in
             let g = crossover rng p1.genome p2.genome in
             a.(i) <- (if Random.State.bool rng then mutate rng g else g)
           done;
           Array.to_list a
         end
       in
       let threshold =
         if !gen = 0 || List.length !pop < population then None
         else
           match List.rev !pop with w :: _ -> Some w.fitness | [] -> None
       in
       let can_replay =
         !replay_active
         && Hashtbl.mem greplay !gen
         && List.for_all Fun.id
              (List.mapi
                 (fun i g ->
                   match Hashtbl.find_opt areplay (!gen, i) with
                   | Some (_, _, rg, _) -> rg = g
                   | None -> false)
                 genomes)
       in
       let verdicts =
         if can_replay then begin
           replayed := !replayed + n;
           List.mapi
             (fun i _ ->
               let kind, fitness, _, scores = Hashtbl.find areplay (!gen, i) in
               { vkind = kind; vfitness = fitness; vscores = scores })
             genomes
         end
         else begin
           replay_active := false;
           eval_batch ~threshold genomes
         end
       in
       List.iter record verdicts;
       List.iter
         (fun v ->
           match v.vkind with
           | 'd' -> incr dedup
           | 'p' -> incr pruned
           | 'f' -> incr failed
           | _ -> incr measured)
         verdicts;
       List.iteri
         (fun i (g, v) ->
           emit ~live:(not can_replay) (row_of_child ~gen:!gen ~idx:i g v))
         (List.combine genomes verdicts);
       evals := !evals + n;
       let children =
         List.map2 (fun g v -> { genome = g; fitness = v.vfitness }) genomes
           verdicts
       in
       everyone := children @ !everyone;
       pop := take population (List.sort ind_cmp (children @ !pop));
       let best = (List.hd !pop).fitness in
       history := best :: !history;
       emit ~live:(not can_replay) (row_of_generation ~gen:!gen ~evals:!evals ~best);
       incr gen
     done
   with Exit -> ());
  let lresult =
    match !everyone with
    | [] -> None
    | all ->
      let all_sorted = List.sort ind_cmp all in
      Some
        {
          best = List.hd all_sorted;
          top5 = take 5 all_sorted;
          bottom5 =
            take 5
              (List.rev (List.filter (fun i -> i.fitness < max_int) all_sorted));
          evaluations = !evals;
          history = List.rev !history;
        }
  in
  {
    lresult;
    lcompleted = !completed;
    lreplayed = !replayed;
    ldedup = !dedup;
    lpruned = !pruned;
    lmeasured = !measured;
    lfailed = !failed;
  }

(* Evaluate a batch over an optional pool.  Results land in a slot array
   keyed by submission index, so the merge order is independent of
   completion order; [Pool.wait] re-raises the first task exception. *)
let batch_over (pool : Pool.t option) (eval_one : genome -> verdict)
    (genomes : genome list) : verdict list =
  match pool with
  | None -> List.map eval_one genomes
  | Some p ->
    let arr = Array.of_list genomes in
    let out = Array.make (Array.length arr) None in
    Array.iteri
      (fun i g -> Pool.submit p (fun () -> out.(i) <- Some (eval_one g)))
      arr;
    Pool.wait p;
    (* wait returned without raising: every slot is filled *)
    List.map Option.get (Array.to_list out)

(* ------------------------------------------------------------------ *)
(* The search engine                                                   *)
(* ------------------------------------------------------------------ *)

type cache_stats = {
  prefix : Cache.stats;  (** prefix-module cache traffic during this run *)
  dedup_hits : int;  (** genomes scored entirely from recorded scores *)
  pruned : int;  (** genomes discarded from a prefix estimate *)
  measured : int;  (** genomes actually measured *)
  failed : int;  (** genomes that failed on every path *)
}

type outcome = {
  result : result option;  (** [None] iff stopped before any generation *)
  cache_stats : cache_stats;
  completed : bool;
  resumed : int;  (** evaluations replayed from the checkpoint *)
}

type config = {
  seed : int;
  population : int;
  iterations : int;  (** total genome evaluations (the paper uses 1600) *)
  jobs : int;  (** worker domains when no [pool] is supplied *)
  pool : Pool.t option;  (** evaluate over this (shared, warm) pool *)
  prefix_cache : Modul.t Cache.t option;
      (** share partially-optimized modules across runs *)
  prune : bool;  (** enable prefix-estimate early exit *)
  checkpoint : string option;  (** row-log path *)
  resume : bool;  (** replay completed generations from the row log *)
  on_row : (string -> unit) option;  (** streamed copy of every row *)
  stop : unit -> bool;  (** polled at generation boundaries *)
}

let default ?(seed = 1) ?(population = 16) ?(iterations = 160) ?(jobs = 1) ()
    : config =
  {
    seed;
    population;
    iterations;
    jobs;
    pool = None;
    prefix_cache = None;
    prune = true;
    checkpoint = None;
    resume = false;
    on_row = None;
    stop = (fun () -> false);
  }

(** Run the full search engine over [targets] (see {!backend_target},
    {!cells_weighted}).  Deterministic at a fixed seed for any [jobs] /
    [pool]; see the module doc for the argument. *)
let search (cfg : config) ~(targets : target list) : outcome =
  if targets = [] then invalid_arg "Autotune.search: no targets";
  let pcache =
    match cfg.prefix_cache with
    | Some c -> c
    | None -> Cache.create ~capacity:1024 ()
  in
  let stats0 = Cache.stats pcache in
  (* (target, structural fingerprint) -> cycles; written only between
     batches (in [record]), read freely during them *)
  let scores : (string * string, int) Hashtbl.t = Hashtbl.create 256 in
  let record v =
    List.iter
      (fun s -> Hashtbl.replace scores (s.starget, s.sfp) s.scycles)
      v.vscores
  in
  let owned, pool =
    match cfg.pool with
    | Some p -> (None, Some p)
    | None ->
      if cfg.jobs <= 1 then (None, None)
      else
        let p = Pool.create ~jobs:cfg.jobs in
        (Some p, Some p)
  in
  let eval_batch ~threshold genomes =
    batch_over pool
      (eval_child ~pcache ~scores ~prune:cfg.prune ~threshold ~targets)
      genomes
  in
  let lo =
    Fun.protect
      ~finally:(fun () ->
        match owned with Some p -> Pool.shutdown p | None -> ())
      (fun () ->
        genloop ~seed:cfg.seed ~population:cfg.population
          ~iterations:cfg.iterations ~stop:cfg.stop ~checkpoint:cfg.checkpoint
          ~resume:cfg.resume ~on_row:cfg.on_row ~eval_batch ~record)
  in
  {
    result = lo.lresult;
    cache_stats =
      {
        prefix = Cache.sub_stats (Cache.stats pcache) stats0;
        dedup_hits = lo.ldedup;
        pruned = lo.lpruned;
        measured = lo.lmeasured;
        failed = lo.lfailed;
      };
    completed = lo.lcompleted;
    resumed = lo.lreplayed;
  }

(* ------------------------------------------------------------------ *)
(* Subsequence mining (RQ2's best/worst sequence analysis)             *)
(* ------------------------------------------------------------------ *)

(* The original counters now live in {!Miner} alongside the full
   frequent/maximal-subsequence and contrast mining; re-exported here
   for existing callers. *)

let count_containing = Miner.count_containing
let count_ordered_pair = Miner.count_ordered_pair
