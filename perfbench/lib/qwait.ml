(** Queue-wait reconstruction for the service workload.

    The daemon runs one job at a time, in FIFO order within a priority,
    and the load generator submits every job at one priority.  So from
    client-side timestamps alone a job's start is
    [max (its ack, the previous job's done)], where "previous" is the job
    acknowledged just before it (daemon job ids are issued in submission
    order).  Queue wait is start - ack; run time is done - start. *)

type job = {
  seq : int;  (** daemon submission order (the job id's number) *)
  submit : float;
  ack : float;
  done_ : float;
}

type timed = {
  job : job;
  start : float;
  queue_wait : float;
  run : float;
}

let reconstruct (jobs : job list) : timed list =
  let sorted = List.sort (fun a b -> compare a.seq b.seq) jobs in
  let _, rev =
    List.fold_left
      (fun (prev_done, acc) j ->
        let start = Float.max j.ack prev_done in
        ( j.done_,
          { job = j; start; queue_wait = start -. j.ack; run = j.done_ -. start }
          :: acc ))
      (Float.neg_infinity, []) sorted
  in
  List.rev rev

(** Share of [t0, t1] in which no job was running: the service-side
    analogue of wall time not covered by a layer span. *)
let idle_frac ~t0 ~t1 (ts : timed list) : float =
  let busy =
    List.fold_left
      (fun acc t ->
        acc +. Float.max 0. (Float.min t1 t.job.done_ -. Float.max t0 t.start))
      0. ts
  in
  if t1 <= t0 then 0. else 1. -. (busy /. (t1 -. t0))
