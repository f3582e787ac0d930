(* The zkopt benchmark.

     zkperf --workload W --seed N --seconds S --trace 0|1
     zkperf compare BASE.json RESULT.json...

   Runs one workload (sweep-levels | sweep-single | serve-mix) for about
   S seconds on inputs drawn from seed N, checks every output, prints
   its metrics by name and unit and, as the last line, one JSON object
   {"correct","attempted","failed","metrics"}.  With --trace 0 the
   metrics are the end-to-end ones; with --trace 1 a separate traced run
   reports the per-layer ones.  The exit code is 0 only when every
   output was correct.  Each run also writes a result record with its
   provenance under .zkperf/results/; [compare] prints metric deltas
   between records of one machine class and skips the rest with a note. *)

open Common
module Resultfile = Perfkit.Resultfile

let workloads = [ "sweep-levels"; "sweep-single"; "serve-mix" ]

(* the passes reported one by one: those that took >= 1% of pass time
   in traced sweep-levels runs (sweep-single runs at most one pass per
   cell, so its per-pass split follows the seed's draw, not the code) *)
let pass_names =
  [ "licm"; "adce"; "simplifycfg"; "instcombine"; "sccp"; "gvn"; "early-cse";
    "loop-idiom"; "loop-unroll"; "loop-deletion"; "reassociate"; "copyprop";
    "div-rem-pairs"; "dse"; "dce"; "jump-threading"; "sink"; "sroa";
    "correlated-propagation"; "indvars"; "loop-rotate"; "loop-simplify" ]

let end_to_end =
  [
    ("setup_s", "s"); ("cells_per_s", "1/s"); ("warm_cells_per_s", "1/s");
    ("jobs_per_s", "1/s"); ("job_p50_ms", "ms"); ("job_p90_ms", "ms");
    ("first_row_p50_ms", "ms"); ("peak_rss_mb", "MB");
  ]

(* every traced run prints all of these; a layer the workload does not
   exercise reads 0 *)
let per_layer =
  [ ("workloads.build_ms", "ms/cell"); ("runtime.link_ms", "ms/cell");
    ("passes.ms", "ms/cell") ]
  @ List.map (fun p -> ("passes." ^ p ^ ".ms", "ms/cell")) pass_names
  @ [
      ("passes.changed", "count/cell"); ("ir.instrs_after", "count/cell");
      ("ir.verify_ms", "ms/cell"); ("exec.fingerprint_ms", "ms/cell");
      ("exec.cache_ms", "ms/cell"); ("exec.cache_hit_ratio", "ratio");
      ("exec.cache_disk_hits", "count"); ("exec.pool_wait_ms", "ms/cell");
      ("riscv.codegen_ms", "ms/cell"); ("riscv.static_instrs", "count/cell");
      ("riscv.spills", "count/cell"); ("zkvm.risc0_ms", "ms/cell");
      ("zkvm.sp1_ms", "ms/cell"); ("zkvm.cycles", "count/cell");
      ("cpu.timing_ms", "ms/cell"); ("harness.checkpoint_ms", "ms/cell");
      ("serve.admission_p50_ms", "ms"); ("serve.queue_wait_p50_ms", "ms");
      ("serve.queue_wait_p90_ms", "ms"); ("serve.row_gap_p50_ms", "ms");
      ("serve.status_rtt_ms", "ms"); ("serve.cache_hit_ratio", "ratio");
    ]
  @ List.map
      (fun k -> ("serve." ^ k ^ ".p50_ms", "ms"))
      [ "sweep"; "profile"; "autotune"; "fuzz"; "settle" ]
  @ [
      ("harness.cells_per_s", "1/s"); ("autotune.evals_per_s", "1/s");
      ("fuzz.cases_per_s", "1/s"); ("settle.rows_per_s", "1/s");
      ("trace.overhead_frac", "ratio"); ("trace.unattributed_frac", "ratio");
    ]

(* ---- provenance -------------------------------------------------------- *)

let read_file p = In_channel.with_open_bin p In_channel.input_all

let git_sha () =
  let ref_sha r =
    let loose = Filename.concat ".git" r in
    if Sys.file_exists loose then Some (String.trim (read_file loose))
    else
      let packed = ".git/packed-refs" in
      if not (Sys.file_exists packed) then None
      else
        String.split_on_char '\n' (read_file packed)
        |> List.find_map (fun l ->
               match String.split_on_char ' ' l with
               | [ sha; r' ] when String.equal r r' -> Some sha
               | _ -> None)
  in
  match String.trim (read_file ".git/HEAD") with
  | exception Sys_error _ -> "none"
  | head -> (
    match String.split_on_char ' ' head with
    | [ "ref:"; r ] -> Option.value ~default:"none" (ref_sha r)
    | _ -> head)

(* MD5 over the sources the binary was built from: provenance that holds
   in a checkout without git metadata *)
let source_digest () =
  let rec files p =
    if Sys.is_directory p then
      Sys.readdir p |> Array.to_list |> List.sort compare
      |> List.concat_map (fun f -> files (Filename.concat p f))
    else [ p ]
  in
  [ "lib"; "bin"; "perfbench" ]
  |> List.filter Sys.file_exists
  |> List.concat_map files
  |> List.map (fun f -> f ^ " " ^ Digest.to_hex (Digest.file f))
  |> String.concat "\n" |> Digest.string |> Digest.to_hex

(* ---- running one workload ------------------------------------------------ *)

let out_dir = ".zkperf"

let kind_of = function
  | "sweep-levels" -> Some Sweeps.Levels
  | "sweep-single" -> Some Sweeps.Singles
  | _ -> None

let run_workload ~workload ~seed ~seconds ~trace ~zkbench =
  let prov =
    {
      Resultfile.git_sha = git_sha ();
      source_digest = source_digest ();
      machine = Zkopt_exec.Pool.machine_fingerprint ();
      nproc;
      ocaml = Sys.ocaml_version;
      workload;
      seed;
      seconds;
      trace;
    }
  in
  let dir =
    Filename.concat out_dir
      (Printf.sprintf "run-%s-%d-%d" workload seed (Unix.getpid ()))
  in
  rm_rf dir;
  mkdir_p dir;
  let o =
    Fun.protect
      ~finally:(fun () -> rm_rf dir)
      (fun () ->
        let sweep kind =
          (* references first, outside every timed region *)
          let refs = Hashtbl.create 64 in
          List.iter
            (fun w -> Hashtbl.replace refs w.W.name (reference w))
            (Zkopt_workloads.Suite.all ());
          if trace then begin
            let o = Sweeps.run_traced kind ~seed ~dir ~refs ~pass_names in
            let traces = Filename.concat out_dir "traces" in
            mkdir_p traces;
            Sys.rename (Filename.concat dir "trace.json")
              (Filename.concat traces
                 (Printf.sprintf "%s-seed%d.json" workload seed));
            o
          end
          else Sweeps.run_untraced kind ~workload ~seed ~seconds ~dir ~refs
        in
        match kind_of workload with
        | Some kind -> sweep kind
        | None -> Servemix.run ~seed ~seconds ~trace ~dir ~zkbench)
  in
  (* every declared metric, in declared order; layers the workload does
     not exercise read 0 *)
  let declared = if trace then per_layer else end_to_end in
  let metrics =
    List.map
      (fun (name, unit_) ->
        match List.find_opt (fun (x : metric) -> String.equal x.name name) o.metrics with
        | Some x -> x
        | None -> m name unit_ 0.)
      declared
  in
  let correct = o.failed = 0 && List.for_all (fun x -> Float.is_finite x.value) metrics in
  let r =
    { Resultfile.prov; correct; attempted = max 1 o.attempted; failed = o.failed; metrics }
  in
  Printf.printf "zkperf %s seed=%d trace=%d seconds=%d\n" workload seed
    (if trace then 1 else 0) seconds;
  Printf.printf "provenance: git %s, sources %s, machine %s, nproc %d, OCaml %s\n"
    prov.git_sha prov.source_digest prov.machine nproc prov.ocaml;
  List.iter (fun n -> Printf.printf "  %s\n" n) o.notes;
  List.iter
    (fun (x : metric) -> Printf.printf "  %-28s %14.4f %s\n" x.name x.value x.unit_)
    metrics;
  Printf.printf "  %-28s %14.4f ratio (%d failed of %d attempted)\n" "failed_frac"
    (float_of_int r.failed /. float_of_int r.attempted)
    r.failed r.attempted;
  let results = Filename.concat out_dir "results" in
  mkdir_p results;
  let path =
    Filename.concat results
      (Printf.sprintf "%s-seed%d-trace%d.json" workload seed (if trace then 1 else 0))
  in
  Resultfile.save path r;
  Printf.printf "result record: %s\n" path;
  print_endline (Resultfile.summary_line r);
  if correct then 0 else 1

(* ---- compare ------------------------------------------------------------- *)

let compare_files = function
  | [] | [ _ ] ->
    prerr_endline "zkperf compare: need a base record and at least one more";
    2
  | base :: rest -> (
    match Resultfile.load base with
    | Error e ->
      Printf.eprintf "zkperf compare: %s: %s\n" base e;
      2
    | Ok b ->
      List.iter
        (fun path ->
          match Resultfile.load path with
          | Error e -> Printf.printf "skip %s: %s\n" path e
          | Ok r -> (
            match Resultfile.incomparable b r with
            | Some why -> Printf.printf "skip %s: %s\n" path why
            | None ->
              Printf.printf "%s vs %s (seed %d vs %d)\n" path base r.Resultfile.prov.seed
                b.Resultfile.prov.seed;
              List.iter
                (fun (x : metric) ->
                  match
                    List.find_opt
                      (fun (y : metric) -> String.equal y.name x.name)
                      b.Resultfile.metrics
                  with
                  | Some y when y.value <> 0. ->
                    Printf.printf "  %-28s %14.4f -> %14.4f %s (%+.1f%%)\n" x.name y.value
                      x.value x.unit_ (100. *. ((x.value /. y.value) -. 1.))
                  | _ -> ())
                r.Resultfile.metrics))
        rest;
      0)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 25 and trace = ref 0 in
  let zkbench = ref "_build/default/bin/zkbench.exe" in
  let probe = ref "" in
  let anon = ref [] in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "W " ^ String.concat " | " workloads);
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--zkbench", Arg.Set_string zkbench, "PATH zkbench binary (serve-mix)");
      ("--setup-probe", Arg.Set_string probe, "DIR (internal) one sweep set-up in DIR");
    ]
  in
  Arg.parse spec (fun a -> anon := a :: !anon) "zkperf --workload W --seed N --seconds S --trace 0|1";
  match List.rev !anon with
  | "compare" :: files -> exit (compare_files files)
  | _ :: _ ->
    prerr_endline "zkperf: unexpected arguments";
    exit 2
  | [] when !probe <> "" -> (
    match kind_of !workload with
    | Some kind -> Sweeps.setup_probe kind ~seed:!seed ~dir:!probe
    | None -> exit 2)
  | [] ->
    if not (List.mem !workload workloads) then begin
      Printf.eprintf "zkperf: --workload must be one of %s\n" (String.concat ", " workloads);
      exit 2
    end;
    if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
      prerr_endline "zkperf: --seconds must be >= 1 and --trace 0 or 1";
      exit 2
    end;
    exit
      (run_workload ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
         ~zkbench:!zkbench)
