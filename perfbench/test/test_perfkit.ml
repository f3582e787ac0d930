(* Unit tests of the benchmark's own helpers: percentiles with their
   sample counts, queue-wait reconstruction, span self-times and the
   result-file codec. *)

open Perfkit

let feq = Alcotest.float 1e-9

(* ---- percentiles --------------------------------------------------------- *)

let test_percentiles () =
  let xs = List.init 100 (fun i -> float_of_int (100 - i)) in
  let p50 = Stat.percentile 50. xs and p90 = Stat.percentile 90. xs in
  Alcotest.check feq "p50 of 1..100" 50. p50.Stat.value;
  Alcotest.(check int) "n" 100 p50.Stat.n;
  Alcotest.(check int) "beyond p50" 50 p50.Stat.beyond;
  Alcotest.check feq "p90 of 1..100" 90. p90.Stat.value;
  Alcotest.(check int) "beyond p90" 10 p90.Stat.beyond;
  Alcotest.(check bool) "p90 of 100 samples has ten beyond it" true (Stat.tail_ok p90);
  let p90' = Stat.percentile 90. (List.init 99 (fun i -> float_of_int (i + 1))) in
  Alcotest.check feq "p90 of 1..99" 90. p90'.Stat.value;
  Alcotest.(check int) "beyond p90 of 99" 9 p90'.Stat.beyond;
  Alcotest.(check bool) "99 samples are too few for p90" false (Stat.tail_ok p90');
  let one = Stat.percentile 90. [ 7. ] in
  Alcotest.check feq "single sample" 7. one.Stat.value;
  Alcotest.(check int) "single sample: nothing beyond" 0 one.Stat.beyond;
  Alcotest.check_raises "no samples" (Invalid_argument "Stat.percentile: no samples")
    (fun () -> ignore (Stat.percentile 50. []))

(* ---- queue wait ---------------------------------------------------------- *)

let test_queue_wait () =
  (* three jobs from two clients, given out of order: job 2 is acked while
     job 1 runs and starts when job 1 is done; job 3 finds the daemon idle *)
  let job seq submit ack done_ = { Qwait.seq; submit; ack; done_ } in
  let ts =
    Qwait.reconstruct [ job 3 8.5 9. 10.; job 1 0. 0.1 5.; job 2 0.9 1. 8. ]
  in
  Alcotest.(check (list int)) "fifo order" [ 1; 2; 3 ]
    (List.map (fun t -> t.Qwait.job.Qwait.seq) ts);
  Alcotest.(check (list (float 1e-9))) "starts" [ 0.1; 5.; 9. ]
    (List.map (fun t -> t.Qwait.start) ts);
  Alcotest.(check (list (float 1e-9))) "queue waits" [ 0.; 4.; 0. ]
    (List.map (fun t -> t.Qwait.queue_wait) ts);
  Alcotest.(check (list (float 1e-9))) "run times" [ 4.9; 3.; 1. ]
    (List.map (fun t -> t.Qwait.run) ts);
  (* idle: [0, 0.1] and [8, 9] of [0, 10] *)
  Alcotest.check feq "idle share" 0.11 (Qwait.idle_frac ~t0:0. ~t1:10. ts)

(* ---- spans ----------------------------------------------------------------- *)

let span ?(dom = 0) id parent name t0 t1 =
  { Span.id; parent; name; req = 0; dom; t0; t1 }

let test_self_time () =
  (* cell [0,10] > passes [1,6] > licm [2,5]; zkvm [6,9]; and a second
     domain running its own cell [0,4] > passes [1,2] *)
  let spans =
    [
      span 0 (-1) "cell" 0. 10.;
      span 1 0 "passes" 1. 6.;
      span 2 1 "passes.licm" 2. 5.;
      span 3 0 "zkvm" 6. 9.;
      span ~dom:1 0 (-1) "cell" 0. 4.;
      span ~dom:1 1 0 "passes" 1. 2.;
    ]
  in
  let self = Span.self_times spans in
  let get k = List.assoc k self in
  (* 10 - 5 - 3 on domain 0, plus 4 - 1 on domain 1 *)
  Alcotest.check feq "cell self" 5. (get "cell");
  Alcotest.check feq "passes self" 3. (get "passes");
  Alcotest.check feq "licm self" 3. (get "passes.licm");
  Alcotest.check feq "zkvm self" 3. (get "zkvm");
  Alcotest.check feq "self times sum to the roots" 14.
    (List.fold_left (fun a (_, v) -> a +. v) 0. self);
  Alcotest.check feq "passes total" 6. (List.assoc "passes" (Span.totals spans));
  Alcotest.(check int) "well nested" 0 (List.length (Span.misnested spans));
  Alcotest.(check int) "child outside its parent" 1
    (List.length (Span.misnested (span 9 3 "x" 8. 11. :: spans)));
  (* layer spans (not "cell") cover [1,9] on domain 0 and [1,2] on 1 *)
  Alcotest.check feq "covered" 9.
    (Span.covered ~t0:0. ~t1:10. ~counts:(fun s -> s.Span.name <> "cell") spans)

let test_recorder () =
  ignore (Span.collect ());
  let v =
    Span.with_ ~req:7 "outer" (fun () ->
        Span.with_ ~req:7 "a" (fun () -> ()) ;
        Span.with_ ~req:7 "b" (fun () -> Span.with_ ~req:7 "c" (fun () -> 42)))
  in
  Alcotest.(check int) "value through spans" 42 v;
  (try Span.with_ ~req:8 "raises" (fun () -> failwith "boom") with Failure _ -> ());
  let spans = Span.collect () in
  Alcotest.(check int) "spans recorded" 5 (List.length spans);
  let find n = List.find (fun s -> s.Span.name = n) spans in
  Alcotest.(check int) "outer is a root" (-1) (find "outer").Span.parent;
  Alcotest.(check int) "c inside b" (find "b").Span.id (find "c").Span.parent;
  Alcotest.(check int) "a span survives an exception" (-1) (find "raises").Span.parent;
  Alcotest.(check int) "nested correctly" 0 (List.length (Span.misnested spans));
  let outer = find "outer" in
  let total = List.fold_left (fun a (n, v) -> if n = "raises" then a else a +. v) 0. (Span.self_times spans) in
  Alcotest.(check (float 1e-12)) "self times sum to the root" (Span.dur outer) total;
  Alcotest.(check int) "collect empties the buffers" 0 (List.length (Span.collect ()))

(* ---- result file ------------------------------------------------------------ *)

let record machine =
  {
    Resultfile.prov =
      {
        Resultfile.git_sha = "0123abc";
        source_digest = "d41d8cd98f00b204e9800998ecf8427e";
        machine;
        nproc = 2;
        ocaml = "5.1.1";
        workload = "sweep-levels";
        seed = 3;
        seconds = 20;
        trace = false;
      };
    correct = true;
    attempted = 2088;
    failed = 0;
    metrics =
      [
        { Resultfile.name = "cells_per_s"; value = 94.032197324508658; unit_ = "1/s" };
        { Resultfile.name = "setup_s"; value = 0.1 +. 0.2; unit_ = "s" };
        { Resultfile.name = "tiny"; value = 1.2345678901234567e-300; unit_ = "s" };
        { Resultfile.name = "count"; value = 288.; unit_ = "count" };
      ];
  }

let test_roundtrip () =
  let r = record "Unix-w64-c2" in
  let path = "roundtrip.json" in
  Resultfile.save path r;
  (match Resultfile.load path with
  | Ok r' -> Alcotest.(check bool) "bit-identical round trip" true (r = r')
  | Error e -> Alcotest.fail e);
  Sys.remove path;
  (* the summary line carries exactly the four result keys *)
  (match Zkopt_report.Json.of_string (Resultfile.summary_line r) with
  | Ok (Zkopt_report.Json.Obj kvs) ->
    Alcotest.(check (list string)) "summary keys"
      [ "correct"; "attempted"; "failed"; "metrics" ] (List.map fst kvs)
  | _ -> Alcotest.fail "summary line is not a JSON object");
  Alcotest.(check (option string)) "same machine class compares" None
    (Resultfile.incomparable r (record "Unix-w64-c2"));
  Alcotest.(check bool) "another machine class is skipped" true
    (Resultfile.incomparable r (record "Unix-w64-c8") <> None);
  Alcotest.(check bool) "rejects other documents" true
    (Result.is_error (Resultfile.of_json (Zkopt_report.Json.Obj [])))

let () =
  Alcotest.run "perfkit"
    [
      ("stat", [ Alcotest.test_case "p50/p90 with sample counts" `Quick test_percentiles ]);
      ("qwait", [ Alcotest.test_case "queue wait from a synthetic log" `Quick test_queue_wait ]);
      ( "span",
        [
          Alcotest.test_case "self time over nested spans" `Quick test_self_time;
          Alcotest.test_case "recorder nesting" `Quick test_recorder;
        ] );
      ("resultfile", [ Alcotest.test_case "round trip" `Quick test_roundtrip ]);
    ]
