(** Multicore executor tests: work-stealing pool invariants (exactly-once
    execution, sequential order at [jobs = 1], poison propagation),
    content-addressed cache properties (digest stability under {!Clone},
    digest sensitivity to one-instruction edits, hit/compile metric
    equality), single-flight compilation, the LRU bound, and the on-disk
    store (round trip, corruption treated as a miss). *)

open Zkopt_ir
open Zkopt_core
module Pool = Zkopt_exec.Pool
module Cache = Zkopt_exec.Cache
module Fingerprint = Zkopt_exec.Fingerprint
module B = Builder

(* ---- pool invariants ------------------------------------------------ *)

let test_pool_exactly_once () =
  (* every submitted task runs exactly once, at any worker count *)
  let rng = Random.State.make [| 0xE4EC |] in
  for _trial = 1 to 6 do
    let jobs = 1 + Random.State.int rng 8 in
    let n = 50 + Random.State.int rng 200 in
    let counts = Array.make n 0 in
    let mu = Mutex.create () in
    Pool.run ~jobs
      (List.init n (fun i () ->
           Mutex.lock mu;
           counts.(i) <- counts.(i) + 1;
           Mutex.unlock mu));
    Array.iteri
      (fun i c ->
        if c <> 1 then
          Alcotest.failf "task %d ran %d times under %d workers" i c jobs)
      counts
  done

let test_pool_sequential_order () =
  (* a 1-worker pool executes tasks in exact submission order *)
  let order = ref [] in
  let n = 100 in
  Pool.run ~jobs:1 (List.init n (fun i () -> order := i :: !order));
  Alcotest.(check (list int)) "submission order" (List.init n Fun.id)
    (List.rev !order)

let test_pool_poison () =
  (* the first task exception reaches the submitter through [wait], and
     queued tasks are dropped rather than silently continued *)
  let pool = Pool.create ~jobs:4 in
  let ran = Atomic.make 0 in
  for i = 0 to 99 do
    Pool.submit pool (fun () ->
        if i = 10 then failwith "poisoned";
        Atomic.incr ran)
  done;
  (match Pool.wait pool with
  | () -> Alcotest.fail "expected the task exception to re-raise"
  | exception Failure msg -> Alcotest.(check string) "which" "poisoned" msg);
  Pool.shutdown pool;
  Alcotest.(check bool) "queued tasks were dropped" true (Atomic.get ran < 100)

(* ---- digest properties ---------------------------------------------- *)

let prop_clone_digest_stable =
  QCheck.Test.make ~name:"Clone'd modules digest identically" ~count:15
    QCheck.(pair (int_range 1 100_000) (int_range 0 5))
    (fun (seed, lvl_idx) ->
      (* both pristine and post-pipeline modules: cloning preserves
         names, labels and register numbering, so the structural digest
         must not move *)
      let m = Randprog.generate ~seed () in
      let pristine =
        String.equal (Fingerprint.of_modul m)
          (Fingerprint.of_modul (Clone.modul m))
      in
      Zkopt_passes.Catalog.run_level
        (List.nth Zkopt_passes.Catalog.all_levels lvl_idx)
        m;
      pristine
      && String.equal (Fingerprint.of_modul m)
           (Fingerprint.of_modul (Clone.modul m)))

let prop_one_instr_digest_differs =
  QCheck.Test.make ~name:"one-instruction edit changes the digest" ~count:15
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let m = Randprog.generate ~seed () in
      let c = Clone.modul m in
      let f = List.hd c.Modul.funcs in
      let b = Func.entry f in
      let dst = Func.fresh_reg f in
      b.Block.instrs <-
        Instr.Mov { dst; ty = Ty.I32; src = Value.Imm 0L } :: b.Block.instrs;
      not (String.equal (Fingerprint.of_modul m) (Fingerprint.of_modul c)))

let prop_attr_digest_differs =
  QCheck.Test.make ~name:"attribute flip changes the digest" ~count:10
    QCheck.(int_range 1 100_000)
    (fun seed ->
      (* attrs steer late pipeline stages; they are digested explicitly *)
      let m = Randprog.generate ~seed () in
      let c = Clone.modul m in
      let f = List.hd c.Modul.funcs in
      f.Func.attrs.Func.no_inline <- not f.Func.attrs.Func.no_inline;
      not (String.equal (Fingerprint.of_modul m) (Fingerprint.of_modul c)))

(* ---- cache behavior -------------------------------------------------- *)

(* The cache is polymorphic; the tests use a closure-free artifact of
   pure data so the default marshalling codec covers the disk store. *)
type artifact = { codegen : Zkopt_riscv.Codegen.t; static_instrs : int }

let compile_artifact m : artifact =
  let c = Measure.compile_ir m in
  { codegen = c.Measure.codegen; static_instrs = c.Measure.static_instrs }

let prop_cache_hit_matches_fresh_compile =
  QCheck.Test.make ~name:"cache hit executes identically to a fresh compile"
    ~count:6
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let build () = Randprog.generate ~seed () in
      let m = Measure.prepare_ir ~build Profile.Baseline in
      let digest = Fingerprint.of_modul m in
      let cache = Cache.create () in
      let miss =
        Cache.get_or_compile cache ~digest ~compile:(fun () ->
            compile_artifact m)
      in
      let hit =
        Cache.get_or_compile cache ~digest ~compile:(fun () ->
            QCheck.Test.fail_report "second lookup must not compile")
      in
      let fresh = Measure.compile_ir m in
      let run (art : artifact) =
        let c =
          {
            Measure.modul = m;
            codegen = art.codegen;
            static_instrs = art.static_instrs;
          }
        in
        Measure.run_zkvm Zkopt_zkvm.Config.risc0 c
      in
      let a = run miss
      and b = run hit
      and f =
        run
          {
            codegen = fresh.Measure.codegen;
            static_instrs = fresh.Measure.static_instrs;
          }
      in
      let s = Cache.stats cache in
      s.Cache.hits = 1 && s.Cache.misses = 1
      && a.Measure.cycles = b.Measure.cycles
      && a.Measure.cycles = f.Measure.cycles
      && Int64.equal a.Measure.exit_value f.Measure.exit_value)

let tiny_module () =
  let m = Modul.create () in
  ignore
    (B.define m "main" ~params:[] ~ret:Ty.I32 (fun b _ ->
         let x = B.add b (B.imm 40) (B.imm 2) in
         B.ret b (Some x)));
  m

let test_cache_single_flight () =
  (* many domains asking for one digest: exactly one compile happens,
     everyone else blocks and picks up the result as a hit *)
  let m = Measure.prepare_ir ~build:tiny_module Profile.Baseline in
  let digest = Fingerprint.of_modul m in
  let cache = Cache.create () in
  let compiles = Atomic.make 0 in
  Pool.run ~jobs:4
    (List.init 8 (fun _ () ->
         ignore
           (Cache.get_or_compile cache ~digest ~compile:(fun () ->
                Atomic.incr compiles;
                Unix.sleepf 0.02;
                compile_artifact m))));
  Alcotest.(check int) "one compile" 1 (Atomic.get compiles);
  let s = Cache.stats cache in
  Alcotest.(check int) "seven hits" 7 s.Cache.hits;
  Alcotest.(check int) "one miss" 1 s.Cache.misses

let test_cache_lru_eviction () =
  let m = Measure.prepare_ir ~build:tiny_module Profile.Baseline in
  let art = compile_artifact m in
  let cache = Cache.create ~capacity:2 () in
  let get d = ignore (Cache.get_or_compile cache ~digest:d ~compile:(fun () -> art)) in
  get "d1";
  get "d2";
  get "d3" (* capacity 2: evicts d1, the least recently used *);
  get "d3" (* hit *);
  get "d1" (* miss again: it was evicted *);
  let s = Cache.stats cache in
  Alcotest.(check int) "evictions" 2 s.Cache.evictions;
  Alcotest.(check int) "hit on resident digest" 1 s.Cache.hits;
  Alcotest.(check int) "misses" 4 s.Cache.misses

let test_disk_cache_roundtrip () =
  let dir = Filename.temp_file "zkopt_cache" "" in
  Sys.remove dir;
  let m = Measure.prepare_ir ~build:tiny_module Profile.Baseline in
  let digest = Fingerprint.of_modul m in
  let codec = Cache.marshal_codec () in
  (* run 1 compiles and persists *)
  let c1 = Cache.create ~dir () in
  let a1 =
    Cache.get_or_compile ~codec c1 ~digest ~compile:(fun () ->
        compile_artifact m)
  in
  Alcotest.(check int) "first run compiles" 1 (Cache.stats c1).Cache.misses;
  (* run 2 (fresh process state) must load from disk, not compile *)
  let c2 = Cache.create ~dir () in
  let a2 =
    Cache.get_or_compile ~codec c2 ~digest ~compile:(fun () ->
        Alcotest.fail "second run must hit the disk store")
  in
  Alcotest.(check int) "disk hit" 1 (Cache.stats c2).Cache.disk_hits;
  let run (art : artifact) =
    Measure.run_zkvm Zkopt_zkvm.Config.sp1
      {
        Measure.modul = m;
        codegen = art.codegen;
        static_instrs = art.static_instrs;
      }
  in
  Alcotest.(check int) "deserialized artifact executes identically"
    (run a1).Measure.cycles (run a2).Measure.cycles;
  (* a corrupt artifact is a miss, never a failure *)
  let path = ref None in
  let rec walk p =
    if Sys.is_directory p then Array.iter (fun f -> walk (Filename.concat p f)) (Sys.readdir p)
    else path := Some p
  in
  walk dir;
  (match !path with
  | None -> Alcotest.fail "no artifact file written"
  | Some p ->
    let oc = open_out_bin p in
    output_string oc "garbage, not a marshalled artifact";
    close_out oc);
  let c3 = Cache.create ~dir () in
  let a3 =
    Cache.get_or_compile ~codec c3 ~digest ~compile:(fun () ->
        compile_artifact m)
  in
  Alcotest.(check int) "corrupt file treated as a miss" 1
    (Cache.stats c3).Cache.misses;
  Alcotest.(check int) "recompiled artifact still equal" (run a1).Measure.cycles
    (run a3).Measure.cycles

(* ---- row logs --------------------------------------------------------- *)

module Rowlog = Zkopt_exec.Rowlog

(* A row is complete iff it ends in the terminal field "\t."; bodies are
   lowercase letters, so no torn prefix of a row is complete. *)
let frame body = body ^ "\t."

let decode_row line =
  let n = String.length line in
  if n >= 2 && String.sub line (n - 2) 2 = "\t." then
    Some (String.sub line 0 (n - 2))
  else None

(* The bytes of a log holding [header] (if any) and then [rows]. *)
let log_bytes header rows =
  String.concat ""
    (List.map (fun l -> l ^ "\n") (Option.to_list header @ List.map frame rows))

let prop_rowlog_shear =
  let bodies n =
    QCheck.(
      list_of_size Gen.(int_range 0 n)
        (string_gen_of_size Gen.(int_range 0 8) Gen.(char_range 'a' 'z')))
  in
  QCheck.Test.make
    ~name:"rowlog: any shear, then load/open/append, keeps whole rows"
    ~count:60
    QCheck.(triple bool (bodies 6) (bodies 3))
    (fun (with_header, rows, extra) ->
      let header = if with_header then Some "hdr" else None in
      let full = log_bytes header rows in
      let path = Filename.temp_file "zkopt-rowlog" ".log" in
      Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
      let append_extra log =
        List.iter (fun r -> Rowlog.append log (frame r)) extra;
        Rowlog.close log
      in
      List.for_all
        (fun cut ->
          Out_channel.with_open_bin path (fun oc ->
              output_string oc (String.sub full 0 cut));
          (* the rows whose text, terminator included, survived the cut *)
          let complete =
            let rec go off = function
              | r :: tl when off + String.length (frame r) <= cut ->
                r :: go (off + String.length (frame r) + 1) tl
              | _ -> []
            in
            go (String.length (log_bytes header [])) rows
          in
          let before = Rowlog.load decode_row path in
          append_extra (Rowlog.create ?header ~fresh:false path);
          let after = Rowlog.load decode_row path in
          let bytes = Rowfile.read path in
          (* a fresh log over the same file holds exactly the new rows *)
          append_extra (Rowlog.create ?header ~fresh:true path);
          before = complete
          && after = complete @ extra
          && (bytes = "" || bytes.[String.length bytes - 1] = '\n')
          && Rowfile.read path = log_bytes header extra)
        (List.init (String.length full + 1) Fun.id))

let test_rowlog_concurrent_append () =
  (* four domains append at once; some rows outgrow the channel buffer,
     so an unserialized writer would interleave them *)
  let path = Rowfile.temp_path "zkopt-rowlog-par" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let row d i =
    Printf.sprintf "d%d-%d-%s" d i
      (String.make (if i mod 25 = 0 then 70_000 else i) 'x')
  in
  let log = Rowlog.create ~header:"hdr" ~fresh:true path in
  List.iter Domain.join
    (List.init 4 (fun d ->
         Domain.spawn (fun () ->
             for i = 0 to 99 do
               Rowlog.append log (row d i)
             done)));
  Rowlog.close log;
  let expected = List.concat (List.init 4 (fun d -> List.init 100 (row d))) in
  match Rowlog.load Option.some path with
  | header :: rows ->
    Alcotest.(check string) "header first" "hdr" header;
    Alcotest.(check (list string)) "every row whole, each once"
      (List.sort compare expected) (List.sort compare rows)
  | [] -> Alcotest.fail "empty log"

let tests =
  [
    Alcotest.test_case "pool runs each task exactly once" `Quick
      test_pool_exactly_once;
    Alcotest.test_case "1-worker pool preserves submission order" `Quick
      test_pool_sequential_order;
    Alcotest.test_case "task exception poisons the pool" `Quick test_pool_poison;
    Alcotest.test_case "cache single-flight compilation" `Quick
      test_cache_single_flight;
    Alcotest.test_case "cache LRU eviction bound" `Quick test_cache_lru_eviction;
    Alcotest.test_case "disk store roundtrip and corruption" `Quick
      test_disk_cache_roundtrip;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_clone_digest_stable;
        prop_one_instr_digest_differs;
        prop_attr_digest_differs;
        prop_cache_hit_matches_fresh_compile;
      ]
  @ [
      Alcotest.test_case "rowlog concurrent appends stay whole lines" `Quick
        test_rowlog_concurrent_append;
      QCheck_alcotest.to_alcotest prop_rowlog_shear;
    ]
