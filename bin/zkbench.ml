(** zkbench — the command-line front end.

    {v
    zkbench list                         # all 58 programs
    zkbench passes                       # the 64 swept passes
    zkbench backends                     # the registered zkVM backends
    zkbench run fibonacci -O3            # measure one program
    zkbench run npb-lu --pass licm       # one pass vs baseline
    zkbench profile npb-lu --profile baseline --out base.prof
    zkbench profile npb-lu --pass licm --diff base.prof
                                         # where did licm's cycles go?
    zkbench sweep --program fibonacci    # all 71 profiles on one program
    zkbench sweepall --quick --checkpoint sweep.ckpt
                                         # fault-tolerant full-matrix sweep;
                                         # re-run the same command to resume
    zkbench settle --quick --backends risc0,sp1,valida
                                         # price the verifier: proof sizes,
                                         # aggregation tree, EVM gas
    zkbench fuzz --seeds 1..500 --jobs 4 --minimize --corpus corpus
                                         # differential fuzzing campaign
    zkbench tune npb-sp --backend risc0 --iterations 1600 --jobs 8
                                         # full-budget parallel search with
                                         # prefix caching and --profile-out
    zkbench sweepall --tuned tuned.json  # tuned profiles join the matrix
    zkbench asm fibonacci -O3            # dump the RV32 assembly
    zkbench serve --dir _zkserve &       # persistent sweep service
    zkbench submit sweep --programs factorial,sha256 --quick
                                         # queue a job; rows stream back
    zkbench status                       # jobs + shared-cache counters
    zkbench shutdown                     # graceful drain (resumable)
    zkbench bench                        # cells/sec throughput baseline
    v} *)

open Cmdliner
open Zkopt_core
module Json = Zkopt_report.Json
module Backend = Zkopt_backend.Backend
module Registry = Zkopt_backend.Registry

(* the valida backend registers itself at module init; force linkage *)
let () = Zkopt_valida.Vbackend.ensure ()

(** The one [--vm NAME] resolution point: every subcommand goes through
    the registry, and a mistyped name lists what is registered. *)
let resolve_backend name =
  try Registry.find name with Invalid_argument msg -> failwith msg

let find_workload name =
  Zkopt_workloads.Suite.check_composition ();
  Zkopt_workloads.Workload.find name

let size_of_quick quick =
  if quick then Zkopt_workloads.Workload.Quick else Zkopt_workloads.Workload.Full

let comma_list s =
  List.filter (fun x -> x <> "") (String.split_on_char ',' s)

let show_metrics (zk : Measure.zk_metrics) =
  Printf.printf "  %-6s %10d cycles  exec %8.4fs  prove %8.2fs  %2d seg  paging %8d\n"
    zk.Measure.vm zk.Measure.cycles zk.Measure.exec_time_s zk.Measure.prove_time_s
    zk.Measure.segments zk.Measure.paging_cycles

let profile_of ~level ~pass ~zk_o3 =
  match (level, pass, zk_o3) with
  | _, Some p, _ -> Profile.Single_pass p
  | Some l, _, _ ->
    let lvl =
      match l with
      | "-O0" | "O0" -> Zkopt_passes.Catalog.O0
      | "-O1" | "O1" -> Zkopt_passes.Catalog.O1
      | "-O2" | "O2" -> Zkopt_passes.Catalog.O2
      | "-O3" | "O3" -> Zkopt_passes.Catalog.O3
      | "-Os" | "Os" -> Zkopt_passes.Catalog.Os
      | "-Oz" | "Oz" -> Zkopt_passes.Catalog.Oz
      | other -> failwith ("unknown level " ^ other)
    in
    Profile.Level lvl
  | _, _, true -> Profile.Zkvm_o3
  | None, None, false -> Profile.Baseline

(** Resolve a generic [--profile NAME]: "baseline", a level, the
    zkVM-aware -O3, or any swept pass by name. *)
let profile_by_name = function
  | "baseline" -> Profile.Baseline
  | "zk-o3" | "zkvm-o3" | "-O3(zkvm)" -> Profile.Zkvm_o3
  | ("O0" | "-O0" | "O1" | "-O1" | "O2" | "-O2" | "O3" | "-O3" | "Os" | "-Os"
    | "Oz" | "-Oz") as l ->
    profile_of ~level:(Some l) ~pass:None ~zk_o3:false
  | p ->
    ignore (Zkopt_passes.Pass.find p) (* errors early on unknown names *);
    Profile.Single_pass p

let json_of_zk (zk : Measure.zk_metrics) : Json.t =
  Json.Obj
    [
      ("vm", Json.Str zk.Measure.vm);
      ("cycles", Json.Int zk.Measure.cycles);
      ("exec_time_s", Json.Float zk.Measure.exec_time_s);
      ("prove_time_s", Json.Float zk.Measure.prove_time_s);
      ("segments", Json.Int zk.Measure.segments);
      ("paging_cycles", Json.Int zk.Measure.paging_cycles);
      ("page_ins", Json.Int zk.Measure.page_ins);
      ("page_outs", Json.Int zk.Measure.page_outs);
      ("loads", Json.Int zk.Measure.loads);
      ("stores", Json.Int zk.Measure.stores);
    ]

let json_of_cpu (cpu : Measure.cpu_metrics) : Json.t =
  Json.Obj
    [
      ("cycles", Json.Float cpu.Measure.cpu_cycles);
      ("time_s", Json.Float cpu.Measure.cpu_time_s);
      ("mispredicts", Json.Int cpu.Measure.mispredicts);
      ("cache_misses", Json.Int cpu.Measure.cache_misses);
    ]

(* ---- subcommands --------------------------------------------------- *)

let list_cmd =
  let run () =
    Zkopt_workloads.Suite.check_composition ();
    List.iter
      (fun (w : Zkopt_workloads.Workload.t) ->
        Printf.printf "%-28s %-10s%s\n" w.Zkopt_workloads.Workload.name
          w.Zkopt_workloads.Workload.suite
          (if w.Zkopt_workloads.Workload.uses_precompiles then "  [precompiles]"
           else ""))
      (Zkopt_workloads.Workload.all ())
  in
  Cmd.v (Cmd.info "list" ~doc:"List the 58 benchmark programs")
    Term.(const run $ const ())

let passes_cmd =
  let run () =
    List.iter
      (fun p ->
        let pass = Zkopt_passes.Pass.find p in
        Printf.printf "%-28s %s\n" p pass.Zkopt_passes.Pass.descr)
      Zkopt_passes.Catalog.swept_passes
  in
  Cmd.v (Cmd.info "passes" ~doc:"List the 64 swept optimization passes")
    Term.(const run $ const ())

let prog_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"PROGRAM")

let quick_arg =
  Arg.(value & flag & info [ "quick" ] ~doc:"Use reduced (test) input sizes")

(* shared by every resumable engine: see DESIGN.md, "Row logs" *)
let fresh_arg =
  Arg.(value & flag
       & info [ "fresh" ]
           ~doc:"Start an empty checkpoint, discarding any rows already in \
                 it (default is to resume)")

let level_arg =
  Arg.(value & opt (some string) None
       & info [ "O"; "level" ] ~docv:"LEVEL" ~doc:"Optimization level (O0..O3, Os, Oz)")

let pass_arg =
  Arg.(value & opt (some string) None
       & info [ "pass" ] ~docv:"PASS" ~doc:"Run a single pass instead of a level")

let zk_o3_arg =
  Arg.(value & flag
       & info [ "zk-o3" ] ~doc:"Use the zkVM-aware modified -O3 pipeline")

let json_arg =
  Arg.(value & flag
       & info [ "json" ] ~doc:"Emit machine-readable JSON instead of tables")

(** Compile once per codegen family: backends sharing a schema share the
    artifact, exactly like the sweep harness's compile cache. *)
let compiled_family () =
  let arts : (string, Backend.compiled) Hashtbl.t = Hashtbl.create 4 in
  fun (m : Zkopt_ir.Modul.t) (b : Backend.t) ->
    match Hashtbl.find_opt arts b.Backend.schema with
    | Some c -> c
    | None ->
      let c = b.Backend.compile m in
      Hashtbl.add arts b.Backend.schema c;
      c

let run_cmd =
  let run prog quick level pass zk_o3 json =
    let w = find_workload prog in
    let build () = w.Zkopt_workloads.Workload.build (size_of_quick quick) in
    let profile = profile_of ~level ~pass ~zk_o3 in
    let m = Measure.prepare_ir ~build profile in
    let compiled_for = compiled_family () in
    let backends = Registry.all () in
    let zks =
      List.map
        (fun (b : Backend.t) ->
          let c = compiled_for m b in
          (c.Backend.measure ~vm:b.Backend.name ()).Backend.zk)
        backends
    in
    let static_instrs =
      (compiled_for m (List.hd backends)).Backend.static_instrs
    in
    let cpu =
      List.find_map
        (fun (b : Backend.t) -> (compiled_for m b).Backend.measure_cpu)
        backends
      |> Option.map (fun f -> f ?fuel:None ?sink:None ())
    in
    if json then
      print_endline
        (Json.to_string
           (Json.Obj
              ([
                 ("program", Json.Str prog);
                 ("profile", Json.Str (Profile.name profile));
                 ("static_instrs", Json.Int static_instrs);
                 ("zkvms", Json.Arr (List.map json_of_zk zks));
               ]
              @
              match cpu with
              | Some c -> [ ("cpu", json_of_cpu c) ]
              | None -> [])))
    else begin
      Printf.printf "%s under %s:\n" prog (Profile.name profile);
      List.iter show_metrics zks;
      (match cpu with
      | Some cpu ->
        Printf.printf "  %-6s %10.0f cycles  time %8.6fs  (CPU model)\n" "cpu"
          cpu.Measure.cpu_cycles cpu.Measure.cpu_time_s
      | None -> ());
      Printf.printf "  static size: %d instructions\n" static_instrs
    end
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Measure one program under a profile on every registered backend")
    Term.(const run $ prog_arg $ quick_arg $ level_arg $ pass_arg $ zk_o3_arg
          $ json_arg)

let profile_cmd =
  let named_arg =
    Arg.(value & opt (some string) None
         & info [ "profile" ] ~docv:"NAME"
             ~doc:"Profile by name: baseline, a level (O0..Oz), zk-o3, or \
                   any swept pass")
  in
  let vm_arg =
    Arg.(value & opt string "risc0"
         & info [ "vm" ] ~docv:"VM"
             ~doc:"Backend to attribute (any registered backend; see \
                   `zkbench backends`)")
  in
  let top_arg =
    Arg.(value & opt int 20 & info [ "top" ] ~docv:"N" ~doc:"Rows per table")
  in
  let diff_arg =
    Arg.(value & opt (some string) None
         & info [ "diff" ] ~docv:"FILE"
             ~doc:"Diff this run against a baseline profile saved with --out")
  in
  let folded_arg =
    Arg.(value & opt (some string) None
         & info [ "folded" ] ~docv:"FILE"
             ~doc:"Write folded call stacks (flamegraph.pl input) to FILE")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Save the profile to FILE for a later --diff")
  in
  let run prog quick level pass zk_o3 named vm top diff folded out json =
    let w = find_workload prog in
    let build () = w.Zkopt_workloads.Workload.build (size_of_quick quick) in
    let profile =
      match named with
      | Some n -> profile_by_name n
      | None -> profile_of ~level ~pass ~zk_o3
    in
    let b = resolve_backend vm in
    let m = Measure.prepare_ir ~build profile in
    let c = b.Backend.compile m in
    let label = Profile.name profile in
    let metrics, prof = Zkopt_prof.Driver.profile_backend ~label b c in
    let zk = metrics.Backend.zk in
    (match out with Some f -> Zkopt_prof.Profile.save prof f | None -> ());
    (match folded with
    | Some f ->
      let oc = open_out f in
      Zkopt_prof.Render.folded oc prof;
      close_out oc
    | None -> ());
    match diff with
    | Some basefile ->
      let base = Zkopt_prof.Profile.load basefile in
      if json then
        print_endline
          (Json.to_string (Zkopt_prof.Render.json_of_diff ~base ~cand:prof ()))
      else Zkopt_prof.Render.diff ~top ~base ~cand:prof ()
    | None ->
      if json then
        print_endline
          (Json.to_string
             (Json.Obj
                [
                  ("program", Json.Str prog);
                  ( "metrics",
                    Json.Obj
                      [
                        ("vm", Json.Str zk.Measure.vm);
                        ("cycles", Json.Int zk.Measure.cycles);
                        ("segments", Json.Int zk.Measure.segments);
                        ("paging_cycles", Json.Int zk.Measure.paging_cycles);
                      ] );
                  ("profile", Zkopt_prof.Render.json_of_profile prof);
                ]))
      else begin
        Printf.printf "%s under %s [vm=%s]: %d cycles, %d segments\n" prog
          label zk.Measure.vm zk.Measure.cycles zk.Measure.segments;
        Zkopt_prof.Render.table ~top prof
      end
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Attribute every zkVM cycle (exec, paging, padding, CPU model) \
             to the IR site that caused it; optionally diff two profiles")
    Term.(const run $ prog_arg $ quick_arg $ level_arg $ pass_arg $ zk_o3_arg
          $ named_arg $ vm_arg $ top_arg $ diff_arg $ folded_arg $ out_arg
          $ json_arg)

let sweep_cmd =
  let run prog quick =
    let w = find_workload prog in
    let build () = w.Zkopt_workloads.Workload.build (size_of_quick quick) in
    let base = Measure.prepare ~build Profile.Baseline in
    let b0 = Measure.run_zkvm Zkopt_zkvm.Config.risc0 base in
    Printf.printf "%-28s %12s %9s\n" "profile" "r0 cycles" "vs base";
    List.iter
      (fun profile ->
        let c = Measure.prepare ~build profile in
        let r0 = Measure.run_zkvm Zkopt_zkvm.Config.risc0 c in
        Printf.printf "%-28s %12d %+8.1f%%\n" (Profile.name profile)
          r0.Measure.cycles
          ((1.0 -. float_of_int r0.Measure.cycles /. float_of_int b0.Measure.cycles)
          *. 100.0))
      Profile.all_71
  in
  Cmd.v (Cmd.info "sweep" ~doc:"Run all 71 profiles on one program")
    Term.(const run $ prog_arg $ quick_arg)

let sweepall_cmd =
  let ckpt_arg =
    Arg.(value & opt (some string) None
         & info [ "checkpoint" ] ~docv:"FILE"
             ~doc:"Stream completed cells to an append-only checkpoint file; \
                   rerunning with the same file resumes the sweep")
  in
  let budget_arg =
    Arg.(value & opt int 32
         & info [ "failure-budget" ] ~docv:"N"
             ~doc:"Quarantined cells tolerated before aborting")
  in
  let limit_arg =
    Arg.(value & opt (some int) None
         & info [ "limit" ] ~docv:"N"
             ~doc:"Measure at most N new cells then stop (the checkpoint \
                   keeps the rest resumable)")
  in
  let jobs_arg =
    Arg.(value & opt (some int) None
         & info [ "jobs"; "j" ] ~docv:"N"
             ~doc:"Worker domains executing sweep cells in parallel \
                   (default: the recommended domain count of this \
                   machine; results are identical at any job count)")
  in
  let cache_dir_arg =
    Arg.(value & opt (some string) (Some "_zkcache")
         & info [ "cache-dir" ] ~docv:"DIR"
             ~doc:"On-disk compile-cache directory, shared across runs \
                   and versioned by schema tag (default: _zkcache)")
  in
  let no_disk_cache_arg =
    Arg.(value & flag
         & info [ "no-disk-cache" ]
             ~doc:"Keep the compile cache in memory only (no _zkcache)")
  in
  let backends_arg =
    Arg.(value & opt (some string) None
         & info [ "backends" ] ~docv:"NAMES"
             ~doc:"Comma-separated backend columns to measure (default: \
                   risc0,sp1; see `zkbench backends`)")
  in
  let tuned_arg =
    Arg.(value & opt (some string) None
         & info [ "tuned" ] ~docv:"FILE"
             ~doc:"Add the tuned profiles from a `zkbench tune \
                   --profile-out` JSON file as extra matrix columns")
  in
  let run quick ckpt fresh budget limit jobs cache_dir no_disk_cache backends
      tuned =
    let module H = Zkopt_harness.Harness in
    let size = size_of_quick quick in
    let profiles =
      match tuned with
      | None -> None
      | Some file -> (
        match Zkopt_autotune.Tuned.load file with
        | Ok entries ->
          Some
            (Profile.all_71
            @ List.map Zkopt_autotune.Tuned.to_profile entries)
        | Error msg -> failwith (Printf.sprintf "--tuned %s: %s" file msg))
    in
    let backends =
      Option.map
        (fun s ->
          List.map resolve_backend
            (List.filter
               (fun n -> n <> "")
               (String.split_on_char ',' s)))
        backends
    in
    let jobs =
      match jobs with
      | Some n -> max 1 n
      | None -> Zkopt_exec.Pool.recommended_jobs ()
    in
    let cache =
      let dir = if no_disk_cache then None else cache_dir in
      Zkopt_exec.Cache.create ?dir ()
    in
    let cfg =
      {
        (H.default ~size) with
        H.progress = true;
        profiles;
        checkpoint = ckpt;
        resume = not fresh;
        failure_budget = budget;
        limit;
        jobs;
        cache = Some cache;
        backends;
      }
    in
    match H.run cfg with
    | o ->
      Printf.printf
        "sweep: %d points (%d resumed from checkpoint, %d measured now, %d \
         fuel retries; %d jobs)\n"
        (Hashtbl.length o.H.points) o.H.resumed o.H.executed o.H.retries jobs;
      let s = o.H.cache_stats in
      Printf.printf
        "compile cache: %d mem + %d disk hits, %d compiles (%.1f%% hit rate)\n"
        s.Zkopt_exec.Cache.hits s.Zkopt_exec.Cache.disk_hits
        s.Zkopt_exec.Cache.misses
        (Zkopt_exec.Cache.hit_rate_pct s);
      List.iter
        (fun ((c : Zkopt_harness.Error.coord), msg) ->
          Printf.printf "degraded: %s/%s: CPU model failed (%s); zkVM \
                         metrics kept\n"
            c.Zkopt_harness.Error.program c.Zkopt_harness.Error.profile msg)
        o.H.degraded;
      print_endline (H.quarantine_report o.H.quarantined);
      if not o.H.completed then
        Printf.printf
          "stopped at --limit; rerun the same command to resume from the \
           checkpoint\n"
    | exception H.Budget_exceeded errs ->
      Printf.eprintf "sweep aborted: failure budget exceeded\n%s\n"
        (H.quarantine_report errs);
      exit 1
  in
  Cmd.v
    (Cmd.info "sweepall"
       ~doc:"Fault-tolerant full-matrix sweep (all programs x all profiles) \
             with multicore execution, a content-addressed compile cache, \
             quarantine, retry, and checkpoint/resume")
    Term.(const run $ quick_arg $ ckpt_arg $ fresh_arg $ budget_arg
          $ limit_arg $ jobs_arg $ cache_dir_arg $ no_disk_cache_arg
          $ backends_arg $ tuned_arg)

let settle_cmd =
  let module S = Zkopt_settle.Settle in
  let module Ssweep = Zkopt_settle.Ssweep in
  let programs_arg =
    Arg.(value & opt (some string) None
         & info [ "programs" ] ~docv:"NAMES"
             ~doc:"Comma-separated programs to price (default: the full \
                   suite)")
  in
  let profiles_arg =
    Arg.(value & opt (some string) None
         & info [ "profiles" ] ~docv:"NAMES"
             ~doc:"Comma-separated profiles (default: \
                   baseline,O1,O2,O3,Os,Oz,zk-o3)")
  in
  let backends_arg =
    Arg.(value & opt (some string) None
         & info [ "backends" ] ~docv:"NAMES"
             ~doc:"Comma-separated backends to price (default: every \
                   registered backend)")
  in
  let arity_arg =
    Arg.(value & opt int 8
         & info [ "arity" ] ~docv:"N"
             ~doc:"Aggregation fan-in of the recursion tree")
  in
  let w_prove_arg =
    Arg.(value & opt float 1.0
         & info [ "w-prove" ] ~docv:"W"
             ~doc:"Weight on segment proving seconds")
  in
  let w_agg_arg =
    Arg.(value & opt float 1.0
         & info [ "w-agg" ] ~docv:"W"
             ~doc:"Weight on aggregation proving seconds")
  in
  let w_gas_arg =
    Arg.(value & opt float 1.0
         & info [ "w-gas" ] ~docv:"W" ~doc:"Weight on verification gas")
  in
  let jobs_arg =
    Arg.(value & opt (some int) None
         & info [ "jobs"; "j" ] ~docv:"N"
             ~doc:"Worker domains pricing cells in parallel (default: the \
                   recommended domain count; the row stream is \
                   byte-identical at any job count)")
  in
  let ckpt_arg =
    Arg.(value & opt (some string) None
         & info [ "checkpoint" ] ~docv:"FILE"
             ~doc:"Stream completed rows to an append-only checkpoint \
                   file; rerunning with the same file resumes the sweep")
  in
  let cache_dir_arg =
    Arg.(value & opt (some string) (Some "_zkcache")
         & info [ "cache-dir" ] ~docv:"DIR"
             ~doc:"On-disk compile-cache directory (default: _zkcache)")
  in
  let no_disk_cache_arg =
    Arg.(value & flag
         & info [ "no-disk-cache" ]
             ~doc:"Keep the compile cache in memory only")
  in
  let run quick programs profiles backends arity w_prove w_agg w_gas jobs
      ckpt fresh cache_dir no_disk_cache json =
    let size = size_of_quick quick in
    Zkopt_workloads.Suite.check_composition ();
    let program_names =
      match programs with
      | Some s -> comma_list s
      | None -> Zkopt_workloads.Workload.names ()
    in
    let programs =
      List.map
        (fun n ->
          let w = Zkopt_workloads.Workload.find n in
          (n, fun () -> w.Zkopt_workloads.Workload.build size))
        program_names
    in
    let profile_names =
      match profiles with
      | Some s -> comma_list s
      | None -> [ "baseline"; "O1"; "O2"; "O3"; "Os"; "Oz"; "zk-o3" ]
    in
    let profiles =
      List.map
        (fun n ->
          let p = profile_by_name n in
          (Profile.name p, p))
        profile_names
    in
    let backends =
      match backends with
      | Some s -> List.map resolve_backend (comma_list s)
      | None -> Registry.all ()
    in
    let jobs =
      match jobs with
      | Some n -> max 1 n
      | None -> Zkopt_exec.Pool.recommended_jobs ()
    in
    (if fresh then
       match ckpt with
       | Some p when Sys.file_exists p -> Sys.remove p
       | _ -> ());
    let cache =
      let dir = if no_disk_cache then None else cache_dir in
      Zkopt_exec.Cache.create ?dir ()
    in
    let cfg =
      {
        (Ssweep.default ~jobs ()) with
        Ssweep.programs;
        profiles;
        backends;
        arity = Some arity;
        weights = { S.w_prove; w_agg; w_gas };
        cache = Some cache;
        checkpoint = ckpt;
      }
    in
    let o = Ssweep.run cfg in
    let reports = List.filter_map S.report_of_row o.Ssweep.rows in
    if json then
      List.iter
        (fun (program, profile, r) ->
          print_endline
            (Json.to_string (S.json_of_report ~program ~profile r)))
        reports
    else begin
      Printf.printf "%-24s %-10s %-7s %10s %4s %8s %9s %5s %8s %12s\n"
        "program" "profile" "backend" "cycles" "segs" "prove-s" "agg-ms"
        "depth" "gas" "settled";
      List.iter
        (fun (program, profile, (r : S.report)) ->
          Printf.printf
            "%-24s %-10s %-7s %10d %4d %8.2f %9.1f %5d %8d %12d\n" program
            profile r.S.backend r.S.cycles r.S.segments r.S.prove_s
            (r.S.plan.Zkopt_settle.Recursion.agg_total_s *. 1e3)
            r.S.plan.Zkopt_settle.Recursion.depth r.S.gas.Zkopt_settle.Gas.total
            r.S.settled_cost)
        reports;
      Printf.printf
        "settle: %d cells priced (%d replayed from checkpoint; %d jobs)\n"
        o.Ssweep.cells o.Ssweep.replayed jobs
    end
  in
  Cmd.v
    (Cmd.info "settle"
       ~doc:"Price the verifier: sweep a (program x profile x backend) \
             matrix through the settlement models — segment proof sizes, \
             the recursion/aggregation tree, and the EVM verification-gas \
             model — and report the settled cost per cell")
    Term.(const run $ quick_arg $ programs_arg $ profiles_arg
          $ backends_arg $ arity_arg $ w_prove_arg $ w_agg_arg $ w_gas_arg
          $ jobs_arg $ ckpt_arg $ fresh_arg $ cache_dir_arg
          $ no_disk_cache_arg $ json_arg)

let fuzz_cmd =
  let module Case = Zkopt_fuzz.Case in
  let module Campaign = Zkopt_fuzz.Campaign in
  let seeds_arg =
    Arg.(value & opt string "1..100"
         & info [ "seeds" ] ~docv:"A..B"
             ~doc:"Random-program seed range; \"N\" means 1..N")
  in
  let workloads_arg =
    Arg.(value & opt (some string) None
         & info [ "workloads" ] ~docv:"NAMES"
             ~doc:"Also fuzz these suite programs (comma-separated, quick \
                   input sizes)")
  in
  let backends_arg =
    Arg.(value & opt (some string) None
         & info [ "backends" ] ~docv:"NAMES"
             ~doc:"Comma-separated differential columns (default: every \
                   registered backend; \"sp1-dense\" adds the dense-shard \
                   \xc2\xa74.2 reproduction config)")
  in
  let pipelines_arg =
    Arg.(value & opt string "baseline,O3,zk-o3"
         & info [ "pipelines" ] ~docv:"SPECS"
             ~doc:"Comma-separated pipeline specs: baseline, O0..Oz, zk-o3, \
                   a pass name, or a;b;c / zk:a;b;c sequences")
  in
  let random_arg =
    Arg.(value & opt int 0
         & info [ "random-seqs" ] ~docv:"N"
             ~doc:"Additional random pass sequences per source \
                   (deterministic in the seed)")
  in
  let jobs_arg =
    Arg.(value & opt (some int) None
         & info [ "jobs"; "j" ] ~docv:"N"
             ~doc:"Worker domains running cases in parallel (default: the \
                   recommended domain count)")
  in
  let ckpt_arg =
    Arg.(value & opt string "fuzz.ckpt"
         & info [ "checkpoint" ] ~docv:"FILE"
             ~doc:"Append-only campaign checkpoint; rerunning with the same \
                   file resumes where the previous run stopped (default: \
                   fuzz.ckpt)")
  in
  let no_ckpt_arg =
    Arg.(value & flag
         & info [ "no-checkpoint" ] ~doc:"Run without a checkpoint file")
  in
  let budget_arg =
    Arg.(value & opt (some int) None
         & info [ "failure-budget" ] ~docv:"N"
             ~doc:"Stop scheduling new cases after N divergences")
  in
  let limit_arg =
    Arg.(value & opt (some int) None
         & info [ "limit" ] ~docv:"N"
             ~doc:"Cap the campaign at N cases (checkpoint keeps the rest \
                   resumable)")
  in
  let minimize_arg =
    Arg.(value & flag
         & info [ "minimize" ]
             ~doc:"Shrink every finding with the delta-debugging minimizer")
  in
  let corpus_arg =
    Arg.(value & opt (some string) None
         & info [ "corpus" ] ~docv:"DIR"
             ~doc:"Persist (minimized) findings as replayable corpus \
                   entries under DIR")
  in
  let verbose_arg =
    Arg.(value & flag
         & info [ "verbose" ] ~doc:"Log every case, not just findings")
  in
  let run seeds workloads backends pipelines random_seqs jobs ckpt no_ckpt
      fresh budget limit minimize corpus verbose =
    let split s = List.filter (fun x -> x <> "") (String.split_on_char ',' s) in
    let lo, hi =
      match Zkopt_devutil.Seedfmt.range_of_string seeds with
      | Some r -> r
      | None -> failwith (Printf.sprintf "bad --seeds %S (expected N or A..B)" seeds)
    in
    let backends =
      match backends with
      | None -> Registry.all ()
      | Some s ->
        List.map
          (fun n ->
            try Case.resolve_backend n
            with Invalid_argument msg -> failwith msg)
          (split s)
    in
    let pipelines =
      List.map
        (fun spec ->
          match Case.pipeline_of_spec spec with
          | Ok p -> p
          | Error e -> failwith e)
        (split pipelines)
    in
    let sources =
      List.init (hi - lo + 1) (fun i -> Case.seed (lo + i))
      @ (match workloads with
        | None -> []
        | Some s ->
          List.map
            (fun w ->
              ignore (find_workload w);
              Case.Workload w)
            (split s))
    in
    let jobs =
      match jobs with
      | Some n -> max 1 n
      | None -> Zkopt_exec.Pool.recommended_jobs ()
    in
    let cfg =
      {
        (Campaign.default ~backends) with
        Campaign.sources;
        pipelines;
        random_seqs;
        jobs;
        checkpoint = (if no_ckpt then None else Some ckpt);
        resume = not fresh;
        failure_budget = budget;
        minimize;
        corpus;
        limit;
        log =
          (fun line ->
            if verbose || not (String.length line >= 2 && line.[0] = 'o') then
              Printf.printf "%s\n%!" line);
      }
    in
    let s = Campaign.run cfg in
    Printf.printf "%s (%d jobs)\n" (Campaign.describe s) jobs;
    List.iter
      (fun (f : Campaign.finding) ->
        Printf.printf "  %s / %s -> %s: %s%s\n"
          (Case.source_name f.Campaign.case.Case.source)
          f.Campaign.case.Case.pipeline.Case.spec
          (Case.divergence_key f.Campaign.divergence)
          (Case.divergence_detail f.Campaign.divergence)
          (match f.Campaign.corpus_path with
          | Some p -> "  [" ^ p ^ "]"
          | None -> ""))
      s.Campaign.findings;
    if s.Campaign.findings <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Differential fuzzing campaign: random programs and suite \
             workloads run across backends and pass pipelines; divergences \
             are classified, minimized, and persisted to a replayable \
             corpus")
    Term.(const run $ seeds_arg $ workloads_arg $ backends_arg
          $ pipelines_arg $ random_arg $ jobs_arg $ ckpt_arg $ no_ckpt_arg
          $ fresh_arg $ budget_arg $ limit_arg $ minimize_arg $ corpus_arg
          $ verbose_arg)

let tune_cmd =
  let module A = Zkopt_autotune.Autotune in
  let module Tuned = Zkopt_autotune.Tuned in
  let vm_arg =
    Arg.(value & opt string "risc0"
         & info [ "backend"; "vm" ] ~docv:"NAME"
             ~doc:"Backend objective (see `zkbench backends`)")
  in
  let iters_arg =
    Arg.(value & opt int 160
         & info [ "iterations"; "iters" ] ~docv:"N"
             ~doc:"Genome evaluations (the paper's deep dives use 1600)")
  in
  let population_arg =
    Arg.(value & opt int 16
         & info [ "population" ] ~docv:"N" ~doc:"Genomes per generation")
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Search seed")
  in
  let jobs_arg =
    Arg.(value & opt (some int) None
         & info [ "jobs"; "j" ] ~docv:"N"
             ~doc:"Worker domains evaluating a generation in parallel \
                   (default: the recommended domain count; results are \
                   identical at any job count)")
  in
  let ckpt_arg =
    Arg.(value & opt (some string) None
         & info [ "checkpoint" ] ~docv:"FILE"
             ~doc:"Append per-generation rows to FILE; rerunning with the \
                   same file resumes the search")
  in
  let profile_out_arg =
    Arg.(value & opt (some string) None
         & info [ "profile-out" ] ~docv:"FILE"
             ~doc:"Write the winning sequence as a named-profile JSON file \
                   consumable by `zkbench sweepall --tuned`")
  in
  let no_prune_arg =
    Arg.(value & flag
         & info [ "no-prune" ]
             ~doc:"Disable prefix-estimate early exit (measure every \
                   non-deduped genome)")
  in
  let objective_arg =
    Arg.(value & opt string "cycles"
         & info [ "objective" ] ~docv:"NAME"
             ~doc:"Fitness the search minimizes: \"cycles\" (the backend's \
                   cycle count) or \"settled\" (end-to-end settlement \
                   micro-cost: prover + aggregation + verification gas)")
  in
  let run prog quick vm iters population seed jobs ckpt fresh profile_out
      no_prune objective =
    let w = find_workload prog in
    let build () = w.Zkopt_workloads.Workload.build (size_of_quick quick) in
    let b = resolve_backend vm in
    let jobs =
      match jobs with
      | Some n -> max 1 n
      | None -> Zkopt_exec.Pool.recommended_jobs ()
    in
    let artifacts = Zkopt_exec.Cache.create () in
    let target, unit_name =
      match objective with
      | "cycles" ->
        (A.backend_target ~cache:artifacts ~program:prog ~build b, "cycles")
      | "settled" ->
        ( A.settled_target ~cache:artifacts ~program:prog ~build b,
          "settled micro-units" )
      | o -> failwith ("unknown --objective " ^ o ^ " (cycles | settled)")
    in
    let cfg =
      {
        (A.default ~seed ~population ~iterations:iters ~jobs ()) with
        A.prune = not no_prune;
        checkpoint = ckpt;
        resume = not fresh;
      }
    in
    let o = A.search cfg ~targets:[ target ] in
    match o.A.result with
    | None ->
      Printf.eprintf "tune: stopped before completing a generation\n";
      exit 1
    | Some ga ->
      let best = ga.A.best in
      Printf.printf "tuned %s@%s: %d %s after %d evaluations (%d \
                     generations%s)\n"
        prog b.Backend.name best.A.fitness unit_name ga.A.evaluations
        (List.length ga.A.history)
        (if o.A.resumed > 0 then
           Printf.sprintf ", %d resumed from checkpoint" o.A.resumed
         else "");
      Printf.printf "  %s\n" (String.concat " -> " best.A.genome);
      let cs = o.A.cache_stats in
      Printf.printf
        "engine: %d measured, %d deduped, %d pruned, %d failed; prefix \
         cache %d hits / %d compiles (%.1f%% hit rate; %d jobs)\n"
        cs.A.measured cs.A.dedup_hits cs.A.pruned cs.A.failed
        cs.A.prefix.Zkopt_exec.Cache.hits cs.A.prefix.Zkopt_exec.Cache.misses
        (Zkopt_exec.Cache.hit_rate_pct cs.A.prefix)
        jobs;
      (match profile_out with
      | None -> ()
      | Some path -> (
        let e =
          Tuned.entry ~program:prog ~vm:b.Backend.name ~cycles:best.A.fitness
            best.A.genome
        in
        match Tuned.save path [ e ] with
        | Ok () -> Printf.printf "wrote %s (profile %S)\n" path e.Tuned.name
        | Error msg -> failwith ("--profile-out: " ^ msg)))
  in
  Cmd.v
    (Cmd.info "tune"
       ~doc:"Full-budget parallel pass-sequence search: generation-parallel \
             evaluation over a domain pool, prefix-cached compilation, \
             dedup/pruning, checkpoint/resume, and named-profile output \
             for the sweep matrix")
    Term.(const run $ prog_arg $ quick_arg $ vm_arg $ iters_arg
          $ population_arg $ seed_arg $ jobs_arg $ ckpt_arg $ fresh_arg
          $ profile_out_arg $ no_prune_arg $ objective_arg)

let backends_cmd =
  let run () =
    List.iter
      (fun (b : Backend.t) ->
        Printf.printf "%-8s %-10s schema %-12s %s\n" b.Backend.name
          (if b.Backend.zk_native then "zk-native" else "rv32")
          b.Backend.schema b.Backend.doc)
      (Registry.all ())
  in
  Cmd.v
    (Cmd.info "backends" ~doc:"List the registered zkVM backends")
    Term.(const run $ const ())

let asm_cmd =
  let run prog quick level pass zk_o3 =
    let w = find_workload prog in
    let build () = w.Zkopt_workloads.Workload.build (size_of_quick quick) in
    let profile = profile_of ~level ~pass ~zk_o3 in
    let m = build () in
    Zkopt_runtime.Runtime.link m;
    Profile.apply profile m;
    ignore (Zkopt_passes.Pass.run_one "globaldce" m);
    List.iter
      (fun f ->
        let unit_, _ = Zkopt_riscv.Codegen.lower_func m f in
        print_string (Zkopt_riscv.Asm.to_string unit_))
      m.Zkopt_ir.Modul.funcs
  in
  Cmd.v (Cmd.info "asm" ~doc:"Dump the generated RV32 assembly")
    Term.(const run $ prog_arg $ quick_arg $ level_arg $ pass_arg $ zk_o3_arg)

(* ---- the sweep service ----------------------------------------------- *)

module Serve_job = Zkopt_serve.Job
module Serve_proto = Zkopt_serve.Proto
module Serve_client = Zkopt_serve.Client

let dir_arg =
  Arg.(value & opt string "_zkserve"
       & info [ "dir" ] ~docv:"DIR"
           ~doc:"Service state directory (job registry, checkpoints, \
                 default socket)")

let sock_arg =
  Arg.(value & opt (some string) None
       & info [ "sock" ] ~docv:"PATH"
           ~doc:"Unix-domain socket path (default: DIR/zkbench.sock)")

let sock_of ~dir ~sock =
  match sock with Some p -> p | None -> Filename.concat dir "zkbench.sock"

let serve_cmd =
  let jobs_arg =
    Arg.(value & opt (some int) None
         & info [ "jobs"; "j" ] ~docv:"N"
             ~doc:"Worker domains shared by every job (default: the \
                   recommended domain count of this machine)")
  in
  let run dir sock jobs =
    let jobs =
      match jobs with
      | Some n -> max 1 n
      | None -> Zkopt_exec.Pool.recommended_jobs ()
    in
    Zkopt_serve.Daemon.run ~jobs ?sock ~log:print_endline ~dir ()
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the persistent sweep service: a priority job queue over \
             one warm domain pool and compile cache, streaming rows to \
             clients over a unix socket; SIGTERM drains and a restart \
             resumes every unfinished job from its checkpoint")
    Term.(const run $ dir_arg $ sock_arg $ jobs_arg)

let submit_cmd =
  let kind_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"KIND"
             ~doc:"Job kind: sweep | profile | autotune | fuzz | settle")
  in
  let programs_arg =
    Arg.(value & opt (some string) None
         & info [ "programs" ] ~docv:"NAMES"
             ~doc:"Comma-separated programs (sweep; default: full suite)")
  in
  let profiles_arg =
    Arg.(value & opt (some string) None
         & info [ "profiles" ] ~docv:"NAMES"
             ~doc:"Comma-separated profiles (sweep; default: all 71)")
  in
  let backends_arg =
    Arg.(value & opt (some string) None
         & info [ "backends" ] ~docv:"NAMES"
             ~doc:"Comma-separated backends (default: per-kind default)")
  in
  let program_arg =
    Arg.(value & opt (some string) None
         & info [ "program" ] ~docv:"NAME"
             ~doc:"Program (profile/autotune kinds)")
  in
  let profile_arg =
    Arg.(value & opt string "baseline"
         & info [ "profile" ] ~docv:"NAME" ~doc:"Profile (profile kind)")
  in
  let vm_arg =
    Arg.(value & opt string "risc0"
         & info [ "vm" ] ~docv:"NAME"
             ~doc:"Backend (profile/autotune kinds)")
  in
  let iters_arg =
    Arg.(value & opt int 80
         & info [ "iters" ] ~docv:"N" ~doc:"GA evaluations (autotune kind)")
  in
  let seed_arg =
    Arg.(value & opt int 1
         & info [ "seed" ] ~docv:"N" ~doc:"GA seed (autotune kind)")
  in
  let population_arg =
    Arg.(value & opt int 16
         & info [ "population" ] ~docv:"N"
             ~doc:"Genomes per generation (autotune kind)")
  in
  let seeds_arg =
    Arg.(value & opt string "1..25"
         & info [ "seeds" ] ~docv:"LO..HI" ~doc:"Seed range (fuzz kind)")
  in
  let pipelines_arg =
    Arg.(value & opt string "baseline,O2,O3"
         & info [ "pipelines" ] ~docv:"SPECS"
             ~doc:"Comma-separated pipeline specs (fuzz kind)")
  in
  let limit_arg =
    Arg.(value & opt (some int) None
         & info [ "limit" ] ~docv:"N" ~doc:"Stop after N new cells/cases")
  in
  let priority_arg =
    Arg.(value & opt int 10
         & info [ "priority" ] ~docv:"N"
             ~doc:"Queue priority; lower runs sooner (FIFO within a \
                   priority)")
  in
  let budget_arg =
    Arg.(value & opt (some int) None
         & info [ "budget" ] ~docv:"N"
             ~doc:"Per-client failure budget shared by this connection's \
                   jobs")
  in
  let no_watch_arg =
    Arg.(value & flag
         & info [ "no-watch" ]
             ~doc:"Fire and forget: do not stream rows back (the job also \
                   survives this client disconnecting)")
  in
  let arity_arg =
    Arg.(value & opt int 8
         & info [ "arity" ] ~docv:"N"
             ~doc:"Aggregation fan-in (settle kind)")
  in
  let run dir sock kind programs profiles backends program profile vm iters
      seed population seeds pipelines limit priority budget no_watch arity
      quick =
    let spec =
      match kind with
      | "sweep" ->
        Serve_job.Sweep
          {
            programs = Option.map comma_list programs;
            profiles = Option.map comma_list profiles;
            quick;
            backends = Option.map comma_list backends;
            limit;
          }
      | "profile" -> (
        match program with
        | Some program -> Serve_job.Profile_cell { program; profile; vm; quick }
        | None -> failwith "profile jobs need --program")
      | "autotune" -> (
        match program with
        | Some program ->
          Serve_job.Autotune { program; iters; vm; quick; seed; population }
        | None -> failwith "autotune jobs need --program")
      | "fuzz" -> (
        match Zkopt_devutil.Seedfmt.range_of_string seeds with
        | Some (seed_lo, seed_hi) ->
          Serve_job.Fuzz
            {
              seed_lo;
              seed_hi;
              pipelines = comma_list pipelines;
              backends = Option.map comma_list backends;
              limit;
            }
        | None -> failwith ("bad --seeds range: " ^ seeds))
      | "settle" ->
        Serve_job.Settle
          {
            programs = Option.map comma_list programs;
            profiles = Option.map comma_list profiles;
            backends = Option.map comma_list backends;
            quick;
            arity;
          }
      | k -> failwith ("unknown job kind " ^ k)
    in
    let sock = sock_of ~dir ~sock in
    let result =
      Serve_client.with_connection sock (fun c ->
          Serve_client.submit_and_watch ~priority ?budget
            ~watch:(not no_watch)
            ~on_event:(function
              | Serve_proto.Row { data; _ } -> print_endline data
              | _ -> ())
            c spec)
    in
    match result with
    | Ok (id, `Done summary) ->
      if no_watch then Printf.printf "submitted %s (not watching)\n" id
      else Printf.printf "%s done: %s\n" id (Json.to_string summary)
    | Ok (id, `Failed msg) ->
      Printf.eprintf "%s failed: %s\n" id msg;
      exit 1
    | Error msg ->
      Printf.eprintf "submit: %s\n" msg;
      exit 1
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:"Submit a job (sweep | profile | autotune | fuzz | settle) to \
             a running `zkbench serve` daemon and stream its rows back")
    Term.(const run $ dir_arg $ sock_arg $ kind_arg $ programs_arg
          $ profiles_arg $ backends_arg $ program_arg $ profile_arg $ vm_arg
          $ iters_arg $ seed_arg $ population_arg $ seeds_arg $ pipelines_arg
          $ limit_arg $ priority_arg $ budget_arg $ no_watch_arg $ arity_arg
          $ quick_arg)

let status_cmd =
  let json_flag =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Print the raw status JSON")
  in
  let run dir sock json =
    let sock = sock_of ~dir ~sock in
    let result =
      Serve_client.with_connection sock (fun c ->
          match Serve_client.send c Serve_proto.Status with
          | Error e -> Error e
          | Ok () -> (
            match Serve_client.recv c with
            | Ok (Serve_proto.Status_report s) -> Ok s
            | Ok _ -> Error "unexpected reply to status"
            | Error `Eof -> Error "daemon closed the connection"
            | Error (`Bad msg) -> Error msg))
    in
    match result with
    | Error msg ->
      Printf.eprintf "status: %s\n" msg;
      exit 1
    | Ok s ->
      if json then print_endline (Json.to_string s)
      else begin
        (match Json.member "jobs" s with
        | Some (Json.Arr jobs) ->
          Printf.printf "%-8s %-9s %-10s %5s %5s %s\n" "id" "kind" "state"
            "prio" "rows" "client";
          List.iter
            (fun j ->
              let str k = Option.value ~default:"?" (Json.str_member k j) in
              let int k = Option.value ~default:0 (Json.int_member k j) in
              Printf.printf "%-8s %-9s %-10s %5d %5d %s\n" (str "id")
                (str "kind") (str "state") (int "priority") (int "rows")
                (str "client"))
            jobs
        | _ -> ());
        match Json.member "cache" s with
        | Some cache ->
          let int k = Option.value ~default:0 (Json.int_member k cache) in
          Printf.printf
            "cache: %d mem + %d disk hits, %d compiles, %d evictions, %d \
             resident\n"
            (int "hits") (int "disk_hits") (int "misses") (int "evictions")
            (int "resident")
        | None -> ()
      end
  in
  Cmd.v
    (Cmd.info "status"
       ~doc:"Show a running daemon's jobs and shared compile-cache \
             hit/miss/evict counters")
    Term.(const run $ dir_arg $ sock_arg $ json_flag)

let shutdown_cmd =
  let run dir sock =
    let sock = sock_of ~dir ~sock in
    let result =
      Serve_client.with_connection sock (fun c ->
          match Serve_client.send c Serve_proto.Shutdown with
          | Error e -> Error e
          | Ok () -> (
            match Serve_client.recv c with
            | Ok (Serve_proto.Ack _) | Error `Eof -> Ok ()
            | Ok _ -> Ok ()
            | Error (`Bad msg) -> Error msg))
    in
    match result with
    | Ok () -> print_endline "daemon draining (unfinished jobs resume on restart)"
    | Error msg ->
      Printf.eprintf "shutdown: %s\n" msg;
      exit 1
  in
  Cmd.v
    (Cmd.info "shutdown"
       ~doc:"Ask a running daemon to drain gracefully: the running job \
             checkpoints at its next cell boundary and everything \
             unfinished resumes when the daemon restarts")
    Term.(const run $ dir_arg $ sock_arg)

(* ---- throughput baseline --------------------------------------------- *)

let bench_cmd =
  let module H = Zkopt_harness.Harness in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Output path (default: BENCH_<date>.json)")
  in
  let jobs_arg =
    Arg.(value & opt (some int) None
         & info [ "jobs"; "j" ] ~docv:"N" ~doc:"Worker domains")
  in
  (* the fixed slice: small misc programs x the standard levels, so the
     baseline is comparable across commits *)
  let slice_programs = [ "factorial"; "loop-sum"; "sha256"; "tailcall" ] in
  let slice_profiles = [ "baseline"; "-O1"; "-O2"; "-O3" ] in
  let run out jobs =
    let jobs =
      match jobs with
      | Some n -> max 1 n
      | None -> Zkopt_exec.Pool.recommended_jobs ()
    in
    let cache = Zkopt_exec.Cache.create ?dir:None () in
    let profiles = List.map profile_by_name slice_profiles in
    let phase name =
      let t0 = Unix.gettimeofday () in
      let before = Zkopt_exec.Cache.stats cache in
      let cfg =
        {
          (H.default ~size:Zkopt_workloads.Workload.Quick) with
          H.programs = Some slice_programs;
          profiles = Some profiles;
          jobs;
          cache = Some cache;
        }
      in
      let o = H.run cfg in
      let dt = Unix.gettimeofday () -. t0 in
      let cells = Hashtbl.length o.H.points in
      let s =
        Zkopt_exec.Cache.sub_stats (Zkopt_exec.Cache.stats cache) before
      in
      Printf.printf
        "%-10s %3d cells in %6.2fs  (%6.2f cells/s, cache %.1f%%)\n" name
        cells dt
        (float_of_int cells /. dt)
        (Zkopt_exec.Cache.hit_rate_pct s);
      Json.Obj
        [
          ("family", Json.Str name);
          ("cells", Json.Int cells);
          ("avg_seconds", Json.Float (dt /. float_of_int (max 1 cells)));
          ("cells_per_second", Json.Float (float_of_int cells /. dt));
          ("cache_hit_rate_pct", Json.Float (Zkopt_exec.Cache.hit_rate_pct s));
        ]
    in
    let cold = phase "sweep-cold" in
    let warm = phase "sweep-warm" in
    (* pure-interpreter throughput: decode each slice program once, then
       time repeated Machine.run passes.  No compile, no cache, no prover
       model — this row isolates the decoded-stream executor core, so
       interpreter wins stay visible independent of cache hit rate. *)
    let emul =
      let codes =
        List.map
          (fun name ->
            let w = find_workload name in
            let build () =
              w.Zkopt_workloads.Workload.build Zkopt_workloads.Workload.Quick
            in
            let c = Measure.prepare ~build Profile.Baseline in
            Zkopt_zkvm.Machine.decode Zkopt_zkvm.Config.risc0
              c.Measure.codegen c.Measure.modul)
          slice_programs
      in
      let t0 = Unix.gettimeofday () in
      let retired = ref 0 in
      let passes = ref 0 in
      while Unix.gettimeofday () -. t0 < 1.0 do
        List.iter
          (fun code ->
            let r = Zkopt_zkvm.Machine.run code in
            retired := !retired + r.Zkopt_zkvm.Machine.retired)
          codes;
        incr passes
      done;
      let dt = Unix.gettimeofday () -. t0 in
      let ips = float_of_int !retired /. dt in
      Printf.printf "%-10s %3d passes in %6.2fs  (%6.2f M instrs/s)\n" "emul"
        !passes dt (ips /. 1e6);
      Json.Obj
        [
          ("family", Json.Str "emul");
          ("programs", Json.Int (List.length codes));
          ("passes", Json.Int !passes);
          ("retired", Json.Int !retired);
          ("instrs_per_second", Json.Float ips);
        ]
    in
    let date =
      let tm = Unix.localtime (Unix.time ()) in
      Printf.sprintf "%04d-%02d-%02d" (tm.Unix.tm_year + 1900)
        (tm.Unix.tm_mon + 1) tm.Unix.tm_mday
    in
    let doc =
      Json.Obj
        [
          ("schema", Json.Str "zkbench-bench-v1");
          ("date", Json.Str date);
          ("machine", Json.Str (Zkopt_exec.Pool.machine_fingerprint ()));
          ("jobs", Json.Int jobs);
          ( "slice",
            Json.Obj
              [
                ( "programs",
                  Json.Arr (List.map (fun p -> Json.Str p) slice_programs) );
                ( "profiles",
                  Json.Arr (List.map (fun p -> Json.Str p) slice_profiles) );
              ] );
          ("rows", Json.Arr [ cold; warm; emul ]);
        ]
    in
    let path =
      match out with Some p -> p | None -> "BENCH_" ^ date ^ ".json"
    in
    let oc = open_out path in
    output_string oc (Json.to_string doc);
    output_char oc '\n';
    close_out oc;
    Printf.printf "wrote %s\n" path
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:"Measure sweep throughput (cells/second) on a fixed slice, \
             cold and warm compile cache, and emit a BENCH_<date>.json \
             baseline")
    Term.(const run $ out_arg $ jobs_arg)

let () =
  let info =
    Cmd.info "zkbench" ~version:"1.0"
      ~doc:"Measure compiler-optimization impact on simulated zkVMs"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; passes_cmd; backends_cmd; run_cmd; profile_cmd;
            sweep_cmd; sweepall_cmd; settle_cmd; fuzz_cmd;
            tune_cmd; asm_cmd; serve_cmd; submit_cmd; status_cmd;
            shutdown_cmd; bench_cmd ]))
