(** The benchmark's result record and its file codec.

    Every run writes one record: the metrics it printed, the correctness
    tally, and the provenance needed to decide whether two records may be
    compared at all: the machine class of {!Zkopt_exec.Pool.machine_fingerprint}
    (OS, word size, core count) must match, since numbers from another
    machine class say nothing about this one.  Floats are written with 17 significant
    digits, so a record reads back bit-identical. *)

module Json = Zkopt_report.Json

type provenance = {
  git_sha : string;  (** ["none"] outside a git checkout *)
  source_digest : string;  (** MD5 over the sources the run was built from *)
  machine : string;  (** machine class *)
  nproc : int;
  ocaml : string;
  workload : string;
  seed : int;
  seconds : int;
  trace : bool;
}

type metric = { name : string; value : float; unit_ : string }

type t = {
  prov : provenance;
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

let num f =
  if Float.is_finite f then Printf.sprintf "%.17g" f
  else invalid_arg "Resultfile: non-finite metric"

(* Json.to_string rounds floats to 6 digits; metrics keep all of theirs *)
let rec write buf = function
  | Json.Float f -> Buffer.add_string buf (num f)
  | Json.Arr xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        write buf x)
      xs;
    Buffer.add_char buf ']'
  | Json.Obj kvs ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf (Json.to_string (Json.Str k));
        Buffer.add_char buf ':';
        write buf v)
      kvs;
    Buffer.add_char buf '}'
  | j -> Buffer.add_string buf (Json.to_string j)

let to_string j =
  let buf = Buffer.create 1024 in
  write buf j;
  Buffer.contents buf

let metrics_json (ms : metric list) : Json.t =
  Json.Obj
    (List.map
       (fun m ->
         ( m.name,
           Json.Obj [ ("value", Json.Float m.value); ("unit", Json.Str m.unit_) ] ))
       ms)

(** The one-line summary the benchmark prints last. *)
let summary_line (r : t) : string =
  to_string
    (Json.Obj
       [
         ("correct", Json.Bool r.correct);
         ("attempted", Json.Int r.attempted);
         ("failed", Json.Int r.failed);
         ("metrics", metrics_json r.metrics);
       ])

let to_json (r : t) : Json.t =
  let p = r.prov in
  Json.Obj
    [
      ("schema", Json.Str "zkperf-result-v1");
      ( "provenance",
        Json.Obj
          [
            ("git_sha", Json.Str p.git_sha);
            ("source_digest", Json.Str p.source_digest);
            ("machine", Json.Str p.machine);
            ("nproc", Json.Int p.nproc);
            ("ocaml", Json.Str p.ocaml);
            ("workload", Json.Str p.workload);
            ("seed", Json.Int p.seed);
            ("seconds", Json.Int p.seconds);
            ("trace", Json.Bool p.trace);
          ] );
      ("correct", Json.Bool r.correct);
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ("metrics", metrics_json r.metrics);
    ]

let of_json (j : Json.t) : (t, string) result =
  let ( let* ) = Result.bind in
  let need what = function Some v -> Ok v | None -> Error ("missing " ^ what) in
  let* () =
    if Json.str_member "schema" j = Some "zkperf-result-v1" then Ok ()
    else Error "not a zkperf-result-v1 record"
  in
  let* p = need "provenance" (Json.member "provenance" j) in
  let str k = need k (Json.str_member k p) and int k = need k (Json.int_member k p) in
  let* git_sha = str "git_sha" in
  let* source_digest = str "source_digest" in
  let* machine = str "machine" in
  let* nproc = int "nproc" in
  let* ocaml = str "ocaml" in
  let* workload = str "workload" in
  let* seed = int "seed" in
  let* seconds = int "seconds" in
  let* trace = need "trace" (Json.bool_member "trace" p) in
  let* correct = need "correct" (Json.bool_member "correct" j) in
  let* attempted = need "attempted" (Json.int_member "attempted" j) in
  let* failed = need "failed" (Json.int_member "failed" j) in
  let* metrics =
    match Json.member "metrics" j with
    | Some (Json.Obj kvs) ->
      List.fold_right
        (fun (name, m) acc ->
          let* acc = acc in
          let* value =
            match Json.member "value" m with
            | Some (Json.Float f) -> Ok f
            | Some (Json.Int i) -> Ok (float_of_int i)
            | _ -> Error ("metric " ^ name ^ " has no value")
          in
          let* unit_ = need ("unit of " ^ name) (Json.str_member "unit" m) in
          Ok ({ name; value; unit_ } :: acc))
        kvs (Ok [])
    | _ -> Error "missing metrics"
  in
  Ok
    {
      prov =
        { git_sha; source_digest; machine; nproc; ocaml; workload; seed; seconds; trace };
      correct;
      attempted;
      failed;
      metrics;
    }

let save (path : string) (r : t) =
  let oc = open_out_bin path in
  output_string oc (to_string (to_json r));
  output_char oc '\n';
  close_out oc

let load (path : string) : (t, string) result =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | s -> Result.bind (Json.of_string (String.trim s)) of_json

(** Why two records must not be compared, if they must not. *)
let incomparable (a : t) (b : t) : string option =
  if not (String.equal a.prov.machine b.prov.machine) then
    Some
      (Printf.sprintf "machine class %s differs from %s" b.prov.machine
         a.prov.machine)
  else if not (String.equal a.prov.workload b.prov.workload) then
    Some
      (Printf.sprintf "workload %s differs from %s" b.prov.workload
         a.prov.workload)
  else if a.prov.trace <> b.prov.trace then Some "one run is traced, the other not"
  else None
