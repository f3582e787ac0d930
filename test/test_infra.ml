(** Infrastructure tests: profiles, random-program determinism, reports,
    assembly listings, and the measurement pipeline's cross-checks. *)

open Zkopt_ir
open Zkopt_core

let test_profile_names () =
  Alcotest.(check int) "71 profiles" 71 (List.length Profile.all_71);
  Alcotest.(check string) "baseline" "baseline" (Profile.name Profile.Baseline);
  Alcotest.(check string) "-O3"
    "-O3" (Profile.name (Profile.Level Zkopt_passes.Catalog.O3));
  Alcotest.(check string) "zk" "-O3(zkvm)" (Profile.name Profile.Zkvm_o3);
  (* profile names are unique *)
  let names = List.map Profile.name Profile.all_71 in
  Alcotest.(check int) "unique" 71 (List.length (List.sort_uniq compare names))

let test_randprog_deterministic () =
  (* label numbering is process-global, so compare behaviour, not text *)
  let checksum seed =
    let m = Randprog.generate ~seed () in
    Zkopt_runtime.Runtime.link m;
    Interp.checksum m
  in
  Alcotest.(check int64) "same seed, same behaviour" (checksum 99) (checksum 99);
  Alcotest.(check bool) "different seed differs" false
    (Int64.equal (checksum 99) (checksum 100))

let test_measure_checksum_stable () =
  (* the measurement pipeline preserves a program's checksum across
     profiles — the invariant the sweep enforces *)
  let w = Zkopt_workloads.Workload.find "loop-sum" in
  let build () = w.Zkopt_workloads.Workload.build Zkopt_workloads.Workload.Quick in
  let checksums =
    List.map
      (fun p ->
        let c = Measure.prepare ~build p in
        (Measure.run_zkvm Zkopt_zkvm.Config.risc0 c).Measure.exit_value)
      [ Profile.Baseline; Profile.Level Zkopt_passes.Catalog.O2;
        Profile.Single_pass "licm"; Profile.Zkvm_o3 ]
  in
  match checksums with
  | base :: rest ->
    List.iter (fun v -> Alcotest.(check int64) "stable" base v) rest
  | [] -> assert false

let test_asm_listing () =
  let w = Zkopt_workloads.Workload.find "fibonacci" in
  let m = w.Zkopt_workloads.Workload.build Zkopt_workloads.Workload.Quick in
  Zkopt_runtime.Runtime.link m;
  let f = Modul.main m in
  let unit_, stats = Zkopt_riscv.Codegen.lower_func m f in
  let text = Zkopt_riscv.Asm.to_string unit_ in
  Alcotest.(check bool) "has remu" true (Astring_contains.contains text "remu");
  Alcotest.(check bool) "has ecall" true (Astring_contains.contains text "ecall");
  Alcotest.(check bool) "counted instrs" true (stats.Zkopt_riscv.Codegen.instrs > 10)

let test_report_table () =
  (* rendering smoke: alignment maths must not raise on ragged content *)
  Zkopt_report.Report.table
    ~headers:[ "a"; "bb"; "ccc" ]
    [ [ "x"; "1"; "2" ]; [ "longer-name"; "-3.5%"; "+100.0%" ] ];
  Alcotest.(check string) "pct" "+3.5%" (Zkopt_report.Report.pct 3.5);
  Alcotest.(check string) "neg pct" "-2.0%" (Zkopt_report.Report.pct (-2.0))

let test_autotune_deterministic () =
  let w = Zkopt_workloads.Workload.find "factorial" in
  let build () = w.Zkopt_workloads.Workload.build Zkopt_workloads.Workload.Quick in
  let run () =
    let module A = Zkopt_autotune.Autotune in
    let target =
      A.backend_target ~program:"factorial" ~build
        (Zkopt_backend.Registry.find "sp1")
    in
    let o = A.search (A.default ~seed:7 ~iterations:10 ()) ~targets:[ target ] in
    (Option.get o.A.result).A.best
  in
  let a = run () and b = run () in
  Alcotest.(check int) "same fitness" a.Zkopt_autotune.Autotune.fitness
    b.Zkopt_autotune.Autotune.fitness;
  Alcotest.(check (list string)) "same genome" a.Zkopt_autotune.Autotune.genome
    b.Zkopt_autotune.Autotune.genome

let test_zkvm_deterministic () =
  let w = Zkopt_workloads.Workload.find "npb-is" in
  let build () = w.Zkopt_workloads.Workload.build Zkopt_workloads.Workload.Quick in
  let c = Measure.prepare ~build Profile.Baseline in
  let a = Measure.run_zkvm Zkopt_zkvm.Config.risc0 c in
  let b = Measure.run_zkvm Zkopt_zkvm.Config.risc0 c in
  Alcotest.(check int) "cycles deterministic" a.Measure.cycles b.Measure.cycles;
  Alcotest.(check int) "paging deterministic" a.Measure.paging_cycles
    b.Measure.paging_cycles

let tests =
  [
    Alcotest.test_case "profile catalog" `Quick test_profile_names;
    Alcotest.test_case "randprog deterministic" `Quick test_randprog_deterministic;
    Alcotest.test_case "checksums stable across profiles" `Quick
      test_measure_checksum_stable;
    Alcotest.test_case "asm listing" `Quick test_asm_listing;
    Alcotest.test_case "report rendering" `Quick test_report_table;
    Alcotest.test_case "autotune deterministic" `Quick test_autotune_deterministic;
    Alcotest.test_case "zkvm accounting deterministic" `Quick
      test_zkvm_deterministic;
  ]
