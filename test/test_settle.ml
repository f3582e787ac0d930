(** Settlement-model tests: the §1 gas fixture is pinned exactly (and
    within the 1% reproduction tolerance), gas grows by exactly one
    sumcheck round plus one MSM point per circuit doubling, aggregation
    plans obey the depth law and are monotone in segment count, the
    settlement row codec roundtrips, and pricing real measurements is
    deterministic and invariant-clean across every registered backend. *)

open Zkopt_ir
module B = Builder
module Backend = Zkopt_backend.Backend
module Registry = Zkopt_backend.Registry
module Measure = Zkopt_core.Measure
module Profile = Zkopt_core.Profile
module Gas = Zkopt_settle.Gas
module Sparams = Zkopt_settle.Sparams
module Proofsize = Zkopt_settle.Proofsize
module Recursion = Zkopt_settle.Recursion
module S = Zkopt_settle.Settle

let () = Zkopt_valida.Vbackend.ensure ()

(* ---- the §1 gas fixture ---------------------------------------------- *)

(* The measured on-chain breakdown the model is calibrated to: 2^20
   circuit, 10,560-byte wrapped proof, 100 public inputs. *)
let test_gas_fixture () =
  let g = Gas.of_root 20 in
  Alcotest.(check int) "load+parse" 227_965 g.Gas.load_parse;
  Alcotest.(check int) "transcript" 310_881 g.Gas.transcript;
  Alcotest.(check int) "public inputs" 86_707 g.Gas.pi_delta;
  Alcotest.(check int) "sumcheck" 599_934 g.Gas.sumcheck;
  Alcotest.(check int) "shplemini" 1_599_679 g.Gas.shplemini;
  Alcotest.(check int) "total" 2_825_166 g.Gas.total;
  Alcotest.(check int) "msm size" 62 g.Gas.msm_size;
  Alcotest.(check int) "sumcheck rounds" 20 g.Gas.sumcheck_rounds;
  (* the acceptance tolerance: model within 1% of the measurement *)
  let err =
    Float.abs (float_of_int g.Gas.total /. 2_825_166.0 -. 1.0) *. 100.0
  in
  Alcotest.(check bool) "within 1% of the §1 measurement" true (err < 1.0)

let test_gas_per_doubling () =
  Alcotest.(check int) "per-doubling constant" 36_538 Gas.per_doubling_gas;
  for log_n = 1 to 40 do
    let d = (Gas.of_root (log_n + 1)).Gas.total - (Gas.of_root log_n).Gas.total in
    Alcotest.(check int)
      (Printf.sprintf "doubling at log_n=%d" log_n)
      Gas.per_doubling_gas d
  done

let qcheck_gas_monotone =
  QCheck.Test.make ~name:"gas monotone in log_n, proof bytes and inputs"
    ~count:200
    QCheck.(triple (int_range 1 40) (int_range 128 100_000) (int_range 0 500))
    (fun (log_n, bytes, pis) ->
      let g = Gas.of_root ~proof_bytes:bytes ~public_inputs:pis log_n in
      let bigger_n = Gas.of_root ~proof_bytes:bytes ~public_inputs:pis (log_n + 1) in
      let bigger_p = Gas.of_root ~proof_bytes:(bytes + 136) ~public_inputs:pis log_n in
      let bigger_i = Gas.of_root ~proof_bytes:bytes ~public_inputs:(pis + 1) log_n in
      g.Gas.total < bigger_n.Gas.total
      && g.Gas.total < bigger_p.Gas.total
      && g.Gas.total < bigger_i.Gas.total)

(* ---- proof size ------------------------------------------------------- *)

let qcheck_proofsize_log =
  (* doubling the padded area adds exactly [queries * path_bytes]: one
     more Merkle level per query, nothing else *)
  QCheck.Test.make ~name:"proof size is O(log N): +1 path level per doubling"
    ~count:100
    QCheck.(int_range 13 30)
    (fun po2 ->
      List.for_all
        (fun (p : Sparams.t) ->
          Proofsize.bytes p ~padded:(1 lsl (po2 + 1))
          - Proofsize.bytes p ~padded:(1 lsl po2)
          = p.Sparams.queries * p.Sparams.path_bytes)
        Sparams.all)

(* ---- aggregation ------------------------------------------------------ *)

let qcheck_depth_law =
  QCheck.Test.make ~name:"plan depth = ceil(log_arity segments)" ~count:300
    QCheck.(pair (int_range 1 400) (int_range 2 16))
    (fun (segs, arity) ->
      let seg_padded = List.init segs (fun _ -> 1 lsl 20) in
      let plan = Recursion.plan Sparams.risc0 ~arity ~seg_padded () in
      (* independent closed form: smallest d with arity^d >= segs *)
      let rec closed d cap = if cap >= segs then d else closed (d + 1) (cap * arity) in
      plan.Recursion.depth = closed 0 1
      && plan.Recursion.segments = segs
      && (segs = 1) = (plan.Recursion.nodes = 0))

let qcheck_agg_monotone =
  QCheck.Test.make ~name:"aggregation cost monotone in segment count"
    ~count:100
    QCheck.(pair (int_range 1 200) (int_range 2 12))
    (fun (segs, arity) ->
      List.for_all
        (fun (p : Sparams.t) ->
          let cost n =
            (Recursion.plan p ~arity
               ~seg_padded:(List.init n (fun _ -> 1 lsl 20))
               ())
              .Recursion.agg_total_s
          in
          cost segs <= cost (segs + 1))
        Sparams.all)

let test_single_segment_plan () =
  (* one segment needs no aggregation: the leaf is the root *)
  let plan = Recursion.plan Sparams.sp1 ~seg_padded:[ 1 lsl 21 ] () in
  Alcotest.(check int) "depth" 0 plan.Recursion.depth;
  Alcotest.(check int) "nodes" 0 plan.Recursion.nodes;
  Alcotest.(check int) "agg cycles" 0 plan.Recursion.agg_cycles;
  Alcotest.(check int) "root padded" (1 lsl 21) plan.Recursion.root_padded;
  Alcotest.(check int) "root bytes"
    (Proofsize.bytes Sparams.sp1 ~padded:(1 lsl 21))
    plan.Recursion.root_proof_bytes

(* ---- pricing and the row codec ---------------------------------------- *)

(* A synthetic measurement: enough structure for pricing, no execution. *)
let measurement ~vm ~prove_us ~seg_padded ~cycles : Backend.measurement =
  {
    Backend.zk =
      {
        Measure.vm;
        cycles;
        exec_time_s = 0.01;
        prove_time_s = float_of_int prove_us *. 1e-6;
        segments = List.length seg_padded;
        paging_cycles = 0;
        page_ins = 0;
        page_outs = 0;
        loads = 0;
        stores = 0;
        exit_value = 0L;
      };
    accounting = Ok ();
    faulted = false;
    seg_padded;
  }

let qcheck_row_roundtrip =
  QCheck.Test.make ~name:"settlement row codec roundtrips" ~count:300
    QCheck.(
      quad (int_range 1 40) (int_range 13 22) (int_range 0 100_000_000)
        (int_range 2 12))
    (fun (segs, po2, prove_us, arity) ->
      let backend = List.nth [ "risc0"; "sp1"; "valida" ] (segs mod 3) in
      let m =
        measurement ~vm:backend ~prove_us
          ~seg_padded:(List.init segs (fun i -> 1 lsl (max 13 (po2 - (i mod 3)))))
          ~cycles:(segs * 100_000)
      in
      let r = S.price ~arity ~backend m in
      let row = S.row_of_report ~program:"prog" ~profile:"-O2" r in
      match S.report_of_row row with
      | Some (p, pr, r') ->
        (* floats travel as micro-units, so structural equality holds
           up to re-encoding: a decoded report must print the same row
           and keep every integer field *)
        p = "prog" && pr = "-O2"
        && S.row_of_report ~program:p ~profile:pr r' = row
        && r'.S.settled_cost = r.S.settled_cost
        && r'.S.prover_cost = r.S.prover_cost
        && r'.S.agg_cost = r.S.agg_cost
        && r'.S.gas_cost = r.S.gas_cost
        && r'.S.plan.Recursion.depth = r.S.plan.Recursion.depth
        && r'.S.gas = r.S.gas
      | None -> false)

let test_row_rejects_torn () =
  let m =
    measurement ~vm:"risc0" ~prove_us:1_234_567
      ~seg_padded:[ 1 lsl 20; 1 lsl 14 ]
      ~cycles:1_100_000
  in
  let row =
    S.row_of_report ~program:"p" ~profile:"baseline"
      (S.price ~backend:"risc0" m)
  in
  Alcotest.(check bool) "full row decodes" true (S.report_of_row row <> None);
  for cut = 1 to String.length row - 1 do
    if S.report_of_row (String.sub row 0 cut) <> None then
      Alcotest.failf "torn prefix of length %d decoded" cut
  done

let qcheck_settled_dominates =
  QCheck.Test.make ~name:"settled cost >= each component" ~count:200
    QCheck.(pair (int_range 1 64) (int_range 0 50_000_000))
    (fun (segs, prove_us) ->
      List.for_all
        (fun backend ->
          let m =
            measurement ~vm:backend ~prove_us
              ~seg_padded:(List.init segs (fun _ -> 1 lsl 18))
              ~cycles:(segs * 50_000)
          in
          let r = S.price ~backend m in
          r.S.settled_cost >= r.S.prover_cost
          && r.S.settled_cost >= r.S.agg_cost
          && r.S.settled_cost >= r.S.gas_cost
          && S.check_invariants ~backend m = Ok ())
        [ "risc0"; "sp1"; "valida" ])

let test_sparams_prefix_fallback () =
  Alcotest.(check string) "sp1-dense prices as sp1" "sp1"
    (Sparams.find "sp1-dense").Sparams.family;
  Alcotest.check_raises "unknown family raises"
    (Invalid_argument
       "no settlement parameters for backend \"cairo\" (families: risc0, \
        sp1, valida)")
    (fun () -> ignore (Sparams.find "cairo"))

(* ---- end to end over real measurements -------------------------------- *)

let small_program () =
  let m = Modul.create () in
  ignore
    (B.define m "main" ~params:[] ~ret:Ty.I32 (fun b _ ->
         let s = B.var b Ty.I32 (B.imm 7) in
         B.for_ b ~from:(B.imm 0) ~bound:(B.imm 200) (fun i ->
             B.set b Ty.I32 s (B.add b (Value.Reg s) (B.mul b i i)));
         B.ret b (Some (Value.Reg s))));
  m

let test_price_real_measurements () =
  List.iter
    (fun (b : Backend.t) ->
      let m = Measure.prepare_ir ~build:small_program Profile.Baseline in
      let c = b.Backend.compile m in
      let r = c.Backend.measure ~vm:b.Backend.name () in
      Alcotest.(check int)
        (b.Backend.name ^ " reports one padded area per segment")
        r.Backend.zk.Measure.segments
        (List.length r.Backend.seg_padded);
      List.iter
        (fun padded ->
          (* rv32 backends pad one table to a power of two; a multi-chip
             backend reports the sum over its tables *)
          let ok =
            padded > 0
            && (b.Backend.zk_native || padded land (padded - 1) = 0)
          in
          Alcotest.(check bool)
            (b.Backend.name ^ " padded areas are positive") true ok)
        r.Backend.seg_padded;
      (match S.check_invariants ~backend:b.Backend.name r with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" b.Backend.name e);
      let r1 = S.price ~backend:b.Backend.name r in
      let r2 = S.price ~backend:b.Backend.name r in
      Alcotest.(check bool)
        (b.Backend.name ^ " pricing deterministic")
        true (r1 = r2))
    (Registry.all ())

let test_sweep_rows_durable_before_stream () =
  let ckpt = Rowfile.temp_path "zkopt-settle-durable" in
  Fun.protect ~finally:(fun () -> Sys.remove ckpt) @@ fun () ->
  let streamed = ref 0 and early = ref 0 in
  let cfg =
    {
      (Zkopt_settle.Ssweep.default ()) with
      Zkopt_settle.Ssweep.programs = [ ("small", small_program) ];
      profiles =
        [
          ("baseline", Profile.Baseline);
          ("O1", Profile.Level Zkopt_passes.Catalog.O1);
        ];
      backends = [ Registry.find "risc0"; Registry.find "sp1" ];
      checkpoint = Some ckpt;
      on_row =
        Some
          (fun r ->
            incr streamed;
            if not (Rowfile.durable ckpt r) then incr early);
    }
  in
  ignore (Zkopt_settle.Ssweep.run cfg);
  Alcotest.(check int) "every row streamed" 4 !streamed;
  Alcotest.(check int) "no row streamed before it was on disk" 0 !early

let tests =
  [
    Alcotest.test_case "gas fixture (§1 breakdown, exact)" `Quick
      test_gas_fixture;
    Alcotest.test_case "gas per-doubling = 1 round + 1 MSM point" `Quick
      test_gas_per_doubling;
    QCheck_alcotest.to_alcotest qcheck_gas_monotone;
    QCheck_alcotest.to_alcotest qcheck_proofsize_log;
    QCheck_alcotest.to_alcotest qcheck_depth_law;
    QCheck_alcotest.to_alcotest qcheck_agg_monotone;
    Alcotest.test_case "single segment needs no aggregation" `Quick
      test_single_segment_plan;
    QCheck_alcotest.to_alcotest qcheck_row_roundtrip;
    Alcotest.test_case "torn rows never decode" `Quick test_row_rejects_torn;
    QCheck_alcotest.to_alcotest qcheck_settled_dominates;
    Alcotest.test_case "family prefix fallback" `Quick
      test_sparams_prefix_fallback;
    Alcotest.test_case "pricing real measurements (all backends)" `Quick
      test_price_real_measurements;
    Alcotest.test_case "sweep rows stream only once durable" `Quick
      test_sweep_rows_durable_before_stream;
  ]
