(** Helpers shared by the workloads: clocks, the run directory, memory
    high-water marks, the seeded draws and the reference outputs. *)

module W = Zkopt_workloads.Workload

let now = Unix.gettimeofday
let nproc = Domain.recommended_domain_count ()
let size = W.Quick

let rec mkdir_p p =
  if not (Sys.file_exists p) then begin
    mkdir_p (Filename.dirname p);
    try Sys.mkdir p 0o755 with Sys_error _ -> ()
  end

let rec rm_rf p =
  match Unix.lstat p with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
    (try Unix.rmdir p with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove p with Sys_error _ -> ())

(** [VmHWM] of process [pid] (["self"] for this one), in MiB. *)
let peak_rss_mb (pid : string) : float =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> nan
  | s ->
    List.find_map
      (fun line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] ->
          Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb ->
              float_of_int kb /. 1024.)
        | _ -> None)
      (String.split_on_char '\n' s)
    |> Option.value ~default:nan

(** Lines of a checkpoint file, header dropped, sorted: two passes over
    one matrix must produce byte-identical sorted rows. *)
let sorted_rows (path : string) : string list =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l ->
         l <> "" && not (String.equal l Zkopt_harness.Checkpoint.version))
  |> List.sort compare

let shuffle rng (xs : 'a list) : 'a list =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(** The programs of [suites], grouped by suite (in suite order). *)
let by_suite ?suites () : (string * W.t list) list =
  let all = Zkopt_workloads.Suite.all () in
  let names =
    match suites with
    | Some s -> s
    | None -> List.sort_uniq compare (List.map (fun w -> w.W.suite) all)
  in
  List.map
    (fun s -> (s, List.filter (fun w -> String.equal w.W.suite s) all))
    names

(** Reference output of a program: the IR interpreter's checksum of its
    linked, unoptimized module — independent of every pass, the code
    generator and all backends. *)
let reference (w : W.t) : int64 =
  let m = w.W.build size in
  Zkopt_runtime.Runtime.link m;
  Zkopt_ir.Interp.checksum m

(** Whether a cell row decodes and every exit value in it — each
    backend's and the CPU model's — equals the program's reference. *)
let row_ok (refs : (string, int64) Hashtbl.t) (row : string) : bool =
  match Zkopt_harness.Checkpoint.decode_point row with
  | None -> false
  | Some p -> (
    match Hashtbl.find_opt refs p.Zkopt_harness.Cell.program with
    | None -> false
    | Some want ->
      List.for_all
        (fun (z : Zkopt_core.Measure.zk_metrics) ->
          Int64.equal z.Zkopt_core.Measure.exit_value want)
        p.Zkopt_harness.Cell.zk
      &&
      match p.Zkopt_harness.Cell.cpu with
      | Some c -> Int64.equal c.Zkopt_core.Measure.cpu_exit_value want
      | None -> true)

(** One printed metric. *)
type metric = Perfkit.Resultfile.metric = {
  name : string;
  value : float;
  unit_ : string;
}

let m name unit_ value = { name; value; unit_ }

(** Outcome of one workload run. *)
type outcome = {
  attempted : int;
  failed : int;
  metrics : metric list;
  notes : string list;  (** human-readable lines printed before the result *)
}
