(** Span recorder for the traced runs.

    A span is one timed call into a layer: its name, the request (sweep
    cell) it belongs to, the domain that ran it, its interval, and the
    span that was open around it on that domain.  Each domain appends to
    its own buffer, so recording takes no lock; {!collect} merges the
    buffers once the traced work is over.

    A span's self time is its duration minus the durations of its direct
    children, so self times over a tree sum to the root's duration. *)

type t = {
  id : int;  (** unique within [dom] *)
  parent : int;  (** id of the enclosing span on [dom]; -1 for a root *)
  name : string;
  req : int;
  dom : int;
  t0 : float;
  t1 : float;
}

let dur s = s.t1 -. s.t0

type buf = {
  bdom : int;
  mutable spans : t list;
  mutable stack : int list;
  mutable next : int;
}

let bufs : buf list ref = ref []
let bufs_mu = Mutex.create ()

let key =
  Domain.DLS.new_key (fun () ->
      let b =
        { bdom = (Domain.self () :> int); spans = []; stack = []; next = 0 }
      in
      Mutex.lock bufs_mu;
      bufs := b :: !bufs;
      Mutex.unlock bufs_mu;
      b)

(** [with_ ~req name f] runs [f ()] inside a span named [name]. *)
let with_ ~req name f =
  let b = Domain.DLS.get key in
  let id = b.next in
  b.next <- id + 1;
  let parent = match b.stack with p :: _ -> p | [] -> -1 in
  b.stack <- id :: b.stack;
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      let t1 = Unix.gettimeofday () in
      b.stack <- List.tl b.stack;
      b.spans <- { id; parent; name; req; dom = b.bdom; t0; t1 } :: b.spans)
    f

(** Take every recorded span from every domain's buffer, oldest first,
    leaving the buffers empty.  Call only while no span is open. *)
let collect () : t list =
  Mutex.lock bufs_mu;
  let all = List.concat_map (fun b -> let s = b.spans in b.spans <- []; s) !bufs in
  Mutex.unlock bufs_mu;
  List.sort (fun a b -> compare a.t0 b.t0) all

(** Self time per span name, summed over [spans]. *)
let self_times (spans : t list) : (string * float) list =
  let self = Hashtbl.create (List.length spans) in
  List.iter (fun s -> Hashtbl.replace self (s.dom, s.id) (s.name, dur s)) spans;
  List.iter
    (fun s ->
      if s.parent >= 0 then
        match Hashtbl.find_opt self (s.dom, s.parent) with
        | Some (n, v) -> Hashtbl.replace self (s.dom, s.parent) (n, v -. dur s)
        | None -> ())
    spans;
  let by_name = Hashtbl.create 64 in
  Hashtbl.iter
    (fun _ (n, v) ->
      Hashtbl.replace by_name n
        (v +. Option.value ~default:0. (Hashtbl.find_opt by_name n)))
    self;
  Hashtbl.fold (fun n v acc -> (n, v) :: acc) by_name []
  |> List.sort compare

(** Total duration per span name (children included). *)
let totals (spans : t list) : (string * float) list =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun s ->
      Hashtbl.replace tbl s.name
        (dur s +. Option.value ~default:0. (Hashtbl.find_opt tbl s.name)))
    spans;
  Hashtbl.fold (fun n v acc -> (n, v) :: acc) tbl [] |> List.sort compare

(** Spans that do not lie inside their parent's interval (a broken
    tree); empty for any trace {!with_} records. *)
let misnested (spans : t list) : t list =
  let by_id = Hashtbl.create (List.length spans) in
  List.iter (fun s -> Hashtbl.replace by_id (s.dom, s.id) s) spans;
  List.filter
    (fun s ->
      s.parent >= 0
      &&
      match Hashtbl.find_opt by_id (s.dom, s.parent) with
      | Some p -> s.t0 < p.t0 || s.t1 > p.t1
      | None -> true)
    spans

(** Time inside [t0, t1], summed over domains, covered by at least one
    span that [counts]. *)
let covered ~t0 ~t1 ~(counts : t -> bool) (spans : t list) : float =
  let per_dom = Hashtbl.create 8 in
  List.iter
    (fun s ->
      if counts s then
        let a = Float.max t0 s.t0 and b = Float.min t1 s.t1 in
        if b > a then
          Hashtbl.replace per_dom s.dom
            ((a, b) :: Option.value ~default:[] (Hashtbl.find_opt per_dom s.dom)))
    spans;
  Hashtbl.fold
    (fun _ ivs acc ->
      let ivs = List.sort compare ivs in
      let total, last =
        List.fold_left
          (fun (total, last) (a, b) ->
            match last with
            | Some (la, lb) when a <= lb -> (total, Some (la, Float.max lb b))
            | Some (la, lb) -> (total +. (lb -. la), Some (a, b))
            | None -> (total, Some (a, b)))
          (0., None) ivs
      in
      acc +. total +. match last with Some (a, b) -> b -. a | None -> 0.)
    per_dom 0.

(** Chrome trace-event JSON (load in chrome://tracing or Perfetto). *)
let to_chrome (spans : t list) : string =
  let base = match spans with s :: _ -> s.t0 | [] -> 0. in
  let buf = Buffer.create (128 * List.length spans + 2) in
  Buffer.add_char buf '[';
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf
        (Printf.sprintf
           "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"req\":%d}}"
           (Zkopt_report.Json.escape s.name) s.dom
           ((s.t0 -. base) *. 1e6) (dur s *. 1e6) s.req))
    spans;
  Buffer.add_string buf "]\n";
  Buffer.contents buf
