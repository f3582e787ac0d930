(** The differential fuzzing campaign engine.

    A campaign is a finite plan — (source × pipeline) cases over a fixed
    backend set — executed on a work-stealing domain pool.  Each case
    runs the full {!Case} oracle stack; divergences are classified,
    optionally minimized ({!Minimize}) and persisted ({!Corpus}), and
    every completed case streams one row to an append-only checkpoint so
    a killed campaign resumes without repeating work.

    {b Quarantine.}  Worker tasks never let an exception escape: a case
    that blows up in an unforeseen way (outside the classifying stages
    of {!Case.run}) is itself recorded as a base-stage divergence.  The
    pool's poison path is reserved for engine bugs, not fuzz findings —
    one pathological program cannot take down the other workers.

    {b Failure budget.}  With [failure_budget = Some n], the campaign
    stops scheduling new work once [n] divergences have been found this
    run.  Cases skipped by the budget write no checkpoint row, so a
    later resume picks them up.

    {b Checkpoint.}  One row per completed case in a
    {!Zkopt_exec.Rowlog} (framing in DESIGN.md, "Row logs"), with a
    terminal ["."] field so a row truncated by a kill mid-write fails
    decoding instead of silently decoding short.  Row identity is
    (source, pipeline spec); rows are deterministic functions of the
    case, so kill+resume reproduces the uninterrupted run's rows
    byte-for-byte (modulo arrival order — sort to compare). *)

module Error = Zkopt_harness.Error
module Faultplan = Zkopt_harness.Faultplan
module Backend = Zkopt_backend.Backend
module Pool = Zkopt_exec.Pool
module Rowlog = Zkopt_exec.Rowlog

(* ---- checkpoint / streaming rows ------------------------------------- *)

(** One completed case, as streamed to subscribers and persisted to the
    checkpoint.  [status] is ["agree"] or a {!Case.divergence_key};
    [detail] is ["-"] or the sanitized divergence detail. *)
type row = {
  src : string;
  spec : string;
  status : string;
  detail : string;
}

(* ---- plan ------------------------------------------------------------ *)

type config = {
  sources : Case.source list;
  pipelines : Case.pipeline list;  (** fixed pipelines, every source *)
  random_seqs : int;
      (** per-source random pass sequences (passfuzz-style, derived from
          the source's own coordinate — deterministic across runs) *)
  backends : Backend.t list;
  jobs : int;
  checkpoint : string option;
  resume : bool;
      (** load [checkpoint] and skip already-done cases; [false] starts
          an empty checkpoint *)
  failure_budget : int option;
  minimize : bool;
  corpus : string option;  (** persist minimized findings under this dir *)
  faultplan : Faultplan.t;
  fuel : int;
  limit : int option;  (** cap the plan after enumeration (tests) *)
  log : string -> unit;
  pool : Pool.t option;
      (** external worker pool to run cases on; [None] = a private pool
          of [jobs] domains.  A service passes its long-lived pool so
          campaigns share the warm domains with every other job kind;
          the campaign never shuts it down. *)
  on_row : (row -> unit) option;
      (** streaming hook, called once per completed-case row — rows
          resumed from the checkpoint first, then rows produced by this
          run in completion order, each only once its checkpoint row
          is on disk.  Called from worker domains concurrently; the
          callback must be thread-safe. *)
  stop : unit -> bool;
      (** cooperative cancellation, polled before each case: once it
          returns [true], remaining cases are skipped (no row), so a
          later resume picks them up where this run drained. *)
}

let default ~backends =
  {
    sources = [];
    pipelines = [ Case.baseline ];
    random_seqs = 0;
    backends;
    jobs = 1;
    checkpoint = None;
    resume = false;
    failure_budget = None;
    minimize = false;
    corpus = None;
    faultplan = Faultplan.none;
    fuel = Case.default_fuel;
    limit = None;
    log = ignore;
    pool = None;
    on_row = None;
    stop = (fun () -> false);
  }

(* Deterministic per-source integer feeding the random-pipeline rng —
   the same idiom (and 7919 multiplier) as dev/passfuzz.ml, extended to
   workload sources. *)
let source_salt = function
  | Case.Seed { seed; _ } -> seed
  | Case.Workload w -> Hashtbl.hash w land 0xFFFF

let random_pipelines ~(count : int) (src : Case.source) : Case.pipeline list =
  if count <= 0 then []
  else begin
    let passes = Zkopt_passes.Catalog.all_passes () in
    let rng = Random.State.make [| source_salt src * 7919 |] in
    List.init count (fun _ ->
        let len = 1 + Random.State.int rng 8 in
        let seq =
          List.init len (fun _ ->
              List.nth passes (Random.State.int rng (List.length passes)))
        in
        let zk = Random.State.bool rng in
        Case.custom ~zk seq)
  end

(** Enumerate the plan in deterministic order (sources outer, fixed
    pipelines then random sequences inner), deduplicated by row key. *)
let plan (cfg : config) : Case.t list =
  let seen = Hashtbl.create 64 in
  let cases =
    List.concat_map
      (fun src ->
        List.filter_map
          (fun p ->
            let k = Case.source_name src ^ "\t" ^ p.Case.spec in
            if Hashtbl.mem seen k then None
            else begin
              Hashtbl.add seen k ();
              Some { Case.source = src; pipeline = p; backends = cfg.backends }
            end)
          (cfg.pipelines @ random_pipelines ~count:cfg.random_seqs src))
      cfg.sources
  in
  match cfg.limit with
  | None -> cases
  | Some n -> List.filteri (fun i _ -> i < n) cases

(* ---- checkpoint rows ------------------------------------------------- *)

let ckpt_version = "zkopt-fuzzckpt-v1"

let row_key (r : row) = r.src ^ "\t" ^ r.spec

let case_key (c : Case.t) =
  Case.source_name c.Case.source ^ "\t" ^ c.Case.pipeline.Case.spec

let row_of_verdict (c : Case.t) (v : Case.verdict) : row =
  let src = Case.source_name c.Case.source in
  let spec = c.Case.pipeline.Case.spec in
  match v with
  | Case.Agree -> { src; spec; status = "agree"; detail = "-" }
  | Case.Diverged d ->
    {
      src;
      spec;
      status = Case.divergence_key d;
      detail = Corpus.sanitize (Case.divergence_detail d);
    }

(* the terminal "." field makes a kill-truncated row undecodable *)
let encode_row (r : row) : string =
  String.concat "\t" [ r.src; r.spec; r.status; r.detail; "." ]

let decode_row (line : string) : row option =
  match String.split_on_char '\t' line with
  | [ src; spec; status; detail; "." ] when status <> "" ->
    Some { src; spec; status; detail }
  | _ -> None

(** Every decodable row in [path]; missing file = none. *)
let load_rows (path : string) : row list = Rowlog.load decode_row path

(* ---- running --------------------------------------------------------- *)

type finding = {
  case : Case.t;
  divergence : Case.divergence;
  corpus_path : string option;  (** where the minimized entry landed *)
  minimized_instrs : int option;  (** instr count after shrinking *)
}

type summary = {
  planned : int;
  resumed : int;  (** cases satisfied from the checkpoint *)
  ran : int;
  agreed : int;
  findings : finding list;  (** divergences found this run, plan order *)
  budget_hit : bool;
}

(* The injected fault relevant to this case, if any — recorded in the
   corpus entry so replay re-injects it. *)
let fault_for (plan : Faultplan.t) (c : Case.t) :
    (string * Faultplan.kind) option =
  let src = Case.source_name c.Case.source in
  let spec = c.Case.pipeline.Case.spec in
  List.find_map
    (fun ((s : Faultplan.site), k) ->
      if
        String.equal s.Faultplan.program src
        && String.equal s.Faultplan.profile spec
        && List.exists
             (fun (b : Backend.t) -> String.equal b.Backend.name s.Faultplan.vm)
             c.Case.backends
      then Some (s.Faultplan.vm, k)
      else None)
    (Faultplan.sites plan)

(* Minimize a diverged case and (optionally) persist it.  Every failure
   mode in here is quarantined: worst case the finding is recorded
   unminimized. *)
let shrink_and_persist (cfg : config) (c : Case.t) (d : Case.divergence) :
    string option * int option =
  let key = Case.divergence_key d in
  let entry_of steps =
    {
      Corpus.source = c.Case.source;
      pipeline = c.Case.pipeline;
      backends = List.map (fun (b : Backend.t) -> b.Backend.name) c.Case.backends;
      fault = fault_for cfg.faultplan c;
      key;
      detail = Case.divergence_detail d;
      steps;
    }
  in
  (* Shrink under a reduced fuel: a candidate reduction that turns a
     loop infinite must cost ~milliseconds (classified out-of-fuel and
     rejected), not the campaign's full fuel budget.  A case whose
     divergence needs more than this to reproduce is persisted
     unminimized — the repro check below fails on the original too. *)
  let shrink_fuel = min cfg.fuel 2_000_000 in
  let minimized =
    if not cfg.minimize then None
    else
      match Case.build_source c.Case.source with
      | exception _ -> None
      | base ->
        let repro m =
          match
            Case.run ~faultplan:cfg.faultplan ~fuel:shrink_fuel c ~base:m
          with
          | Case.Diverged d' -> String.equal (Case.divergence_key d') key
          | Case.Agree | (exception _) -> false
        in
        (try
           let m, steps = Minimize.minimize ~repro base in
           Some (Minimize.instr_count m, steps)
         with _ -> None)
  in
  let instrs, steps =
    match minimized with
    | Some (n, steps) -> (Some n, steps)
    | None -> (None, [])
  in
  let path =
    match cfg.corpus with
    | None -> None
    | Some dir -> (
      try Some (Corpus.save ~dir (entry_of steps)) with _ -> None)
  in
  (path, instrs)

(** Run the campaign to completion (or to the failure budget).  Returns
    the summary; side effects are the checkpoint rows and corpus
    entries. *)
let run (cfg : config) : summary =
  let cases = plan cfg in
  let done_rows = Hashtbl.create 64 in
  if cfg.resume then
    Option.iter
      (fun path ->
        List.iter
          (fun r -> Hashtbl.replace done_rows (row_key r) r)
          (load_rows path))
      cfg.checkpoint;
  let todo, resumed =
    List.partition (fun c -> not (Hashtbl.mem done_rows (case_key c))) cases
  in
  (* resumed rows stream too (in plan order), so a subscriber that
     attaches after a restart still sees the full row sequence *)
  Option.iter
    (fun f ->
      List.iter
        (fun c ->
          Option.iter f (Hashtbl.find_opt done_rows (case_key c)))
        resumed)
    cfg.on_row;
  let writer =
    Option.map
      (Rowlog.create ~header:ckpt_version ~fresh:(not cfg.resume))
      cfg.checkpoint
  in
  let mu = Mutex.create () in
  let found = ref 0 in
  let agreed = ref 0 in
  let ran = ref 0 in
  let budget_hit = ref false in
  let results : (string, finding) Hashtbl.t = Hashtbl.create 16 in
  let budget_ok () =
    match cfg.failure_budget with
    | None -> true
    | Some n ->
      if !found >= n then begin
        budget_hit := true;
        false
      end
      else true
  in
  let task (c : Case.t) () =
    let proceed =
      Mutex.lock mu;
      let ok = budget_ok () in
      Mutex.unlock mu;
      ok && not (cfg.stop ())
    in
    if proceed then begin
      (* quarantine: Case.run_case classifies everything its stages can
         raise; this catch-all covers the engine around it so a worker
         never poisons the pool with a fuzz finding *)
      let verdict =
        try Case.run_case ~faultplan:cfg.faultplan ~fuel:cfg.fuel c
        with e ->
          Case.Diverged { Case.stage = Case.Base; kind = Error.classify e }
      in
      let extra =
        match verdict with
        | Case.Agree -> None
        | Case.Diverged d -> Some (d, shrink_and_persist cfg c d)
      in
      Mutex.lock mu;
      incr ran;
      (match extra with
      | None ->
        incr agreed;
        cfg.log (Printf.sprintf "ok    %s / %s" (Case.source_name c.Case.source)
                   c.Case.pipeline.Case.spec)
      | Some (d, (corpus_path, minimized_instrs)) ->
        incr found;
        Hashtbl.replace results (case_key c)
          { case = c; divergence = d; corpus_path; minimized_instrs };
        cfg.log
          (Printf.sprintf "FOUND %s / %s -> %s%s"
             (Case.source_name c.Case.source)
             c.Case.pipeline.Case.spec (Case.divergence_key d)
             (match corpus_path with
             | Some p -> " [" ^ Filename.basename p ^ "]"
             | None -> "")));
      Mutex.unlock mu;
      let row = row_of_verdict c verdict in
      Option.iter (fun w -> Rowlog.append w (encode_row row)) writer;
      Option.iter (fun f -> f row) cfg.on_row
    end
  in
  let pool, owned_pool =
    match cfg.pool with
    | Some p -> (p, false)  (* shared service pool: never shut down *)
    | None -> (Pool.create ~jobs:(max 1 cfg.jobs), true)
  in
  List.iter (fun c -> Pool.submit pool (task c)) todo;
  let finish () =
    Pool.wait pool;
    if owned_pool then Pool.shutdown pool
  in
  Fun.protect finish ~finally:(fun () ->
      Option.iter Rowlog.close writer);
  let findings =
    List.filter_map (fun c -> Hashtbl.find_opt results (case_key c)) cases
  in
  {
    planned = List.length cases;
    resumed = List.length resumed;
    ran = !ran;
    agreed = !agreed;
    findings;
    budget_hit = !budget_hit;
  }

let describe (s : summary) : string =
  Printf.sprintf
    "campaign: %d planned, %d resumed, %d ran, %d agreed, %d diverged%s"
    s.planned s.resumed s.ran s.agreed (List.length s.findings)
    (if s.budget_hit then " (failure budget hit)" else "")
