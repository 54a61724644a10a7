(* Time accounting for the benchmark: a nanosecond monotonic clock,
   nested self-time regions, growable sample vectors with percentiles,
   and a detector of stretches when the host's CPU is shared. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Self-time regions. A region's self time is its duration minus the
   time spent in regions nested inside it; its whole duration is charged
   to its parent as child time, so the router calls nested in a loop
   advance, and the benchmark's egress callbacks nested in a router call,
   are each counted once, in the right place. [enter]/[leave] keep their
   state in preallocated arrays: a region allocates nothing, so no
   garbage collection is triggered between regions, where its time would
   be counted nowhere. *)
let child = ref 0
let depth = ref 0
let saved = Array.make 64 0
let starts = Array.make 64 0

let enter () =
  let d = !depth in
  saved.(d) <- !child;
  child := 0;
  depth := d + 1;
  starts.(d) <- now_ns ()

(* Returns the region's self time; [leave_total] its whole duration. *)
let leave_total () =
  let t1 = now_ns () in
  let d = !depth - 1 in
  depth := d;
  let dt = t1 - starts.(d) in
  child := saved.(d) + dt;
  dt

let leave () =
  let c = !child in
  leave_total () - c

let region f =
  enter ();
  (match f () with
  | () -> ()
  | exception e ->
      ignore (leave ());
      raise e);
  leave ()

(* A growable vector of samples (ns or any float), each of which can be
   tagged with a float after it is pushed. *)
module Vec = struct
  type t = {
    mutable a : float array;
    mutable n : int;
    mutable tags : float array;
    mutable tagged : int;  (** samples [0, tagged) carry a tag *)
  }

  let create () = { a = Array.make 256 0.; n = 0; tags = [||]; tagged = 0 }

  let grown arr n =
    let b = Array.make (max 256 (2 * n)) 0. in
    Array.blit arr 0 b 0 (min n (Array.length arr));
    b

  let push v x =
    if v.n = Array.length v.a then v.a <- grown v.a v.n;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let length v = v.n
  let get v i = v.a.(i)

  (* nearest-rank percentile, [p] in [0, 1] *)
  let percentile v p =
    if v.n = 0 then 0.
    else begin
      let s = Array.sub v.a 0 v.n in
      Array.sort Float.compare s;
      let k = int_of_float (Float.ceil (p *. float_of_int v.n)) - 1 in
      s.(max 0 (min (v.n - 1) k))
    end

  let median v = percentile v 0.5

  (* Tags every sample pushed since the last [tag] with [x]. *)
  let tag v x =
    if Array.length v.tags < v.n then v.tags <- grown v.tags v.n;
    for i = v.tagged to v.n - 1 do
      v.tags.(i) <- x
    done;
    v.tagged <- v.n

  (* The tagged samples whose tag is at most [limit]. *)
  let tagged_upto v limit =
    let r = create () in
    for i = 0 to v.tagged - 1 do
      if v.tags.(i) <= limit then push r v.a.(i)
    done;
    r

  (* The [k] tagged samples with the lowest tags. *)
  let lowest_tagged v k =
    let idx = Array.init v.tagged (fun i -> i) in
    Array.stable_sort (fun i j -> Float.compare v.tags.(i) v.tags.(j)) idx;
    let r = create () in
    Array.iteri (fun rank i -> if rank < k then push r v.a.(i)) idx;
    r
end

(* Running total of self time and call count for one class of calls. *)
type acc = { mutable ns : int; mutable calls : int; mutable items : int }

let acc () = { ns = 0; calls = 0; items = 0 }

let add a ~ns ~items =
  a.ns <- a.ns + ns;
  a.calls <- a.calls + 1;
  a.items <- a.items + items

let per_item a = if a.items = 0 then 0. else float_of_int a.ns /. float_of_int a.items
let per_call a = if a.calls = 0 then 0. else float_of_int a.ns /. float_of_int a.calls

(* Host contention. On a shared host the benchmark's core is, for
   stretches of a few milliseconds to a few seconds, shared with other
   work, and every instruction then takes up to twice as long; the share
   of such stretches in a run changes from run to run, and with it any
   statistic over all of a run's samples. [probe_ns] times a fixed,
   allocation-free kernel of about 4 us that touches only a 2 KiB array,
   warmed first, so its time depends on how much of the core the
   benchmark has, not on the router's state. Work is measured in short stretches, each tagged
   with the slower of the probes just before and just after it; the
   end-to-end metrics are taken over the stretches whose tag is within
   [slack] of the fastest probe seen, when that leaves enough of them. *)
let probe_array = Array.init 256 (fun i -> i)

let kernel reps =
  let s = ref 0 in
  for _ = 1 to reps do
    for i = 0 to 255 do
      s := !s + (probe_array.(i) * i) lxor !s
    done
  done;
  Sys.opaque_identity !s

let fastest_probe = ref max_int

(* Times one kernel; returns its ns. A short untimed pass first brings
   the array and the code back into the caches, so that the time does not
   depend on how much the work before the probe evicted. *)
let probe_ns () =
  ignore (kernel 1);
  let t0 = now_ns () in
  ignore (kernel 16);
  let dt = now_ns () - t0 in
  if dt < !fastest_probe then fastest_probe := dt;
  dt

(* Sets the fastest probe from [n] back-to-back probes. *)
let calibrate_probe n =
  for _ = 1 to n do
    ignore (probe_ns ())
  done

(* The fastest probe is also kept across runs of the same executable, in
   the build directory when there is one: a run that falls entirely in a
   busy stretch of the host then still knows how fast the probe runs on
   a quiet one. *)
let probe_file () =
  if Sys.file_exists "_build" && Sys.is_directory "_build" then
    Some
      (Filename.concat "_build"
         ("hwbench-fastest-probe-" ^ Digest.to_hex (Digest.file Sys.executable_name)))
  else None

let load_fastest_probe () =
  match probe_file () with
  | Some f when Sys.file_exists f -> (
      match int_of_string_opt (String.trim (In_channel.with_open_text f In_channel.input_all)) with
      | Some ns when ns > 0 -> fastest_probe := min !fastest_probe ns
      | _ -> ())
  | _ -> ()

let save_fastest_probe () =
  match probe_file () with
  | Some f ->
      let tmp = Filename.temp_file ~temp_dir:"_build" "hwbench-probe" ".tmp" in
      Out_channel.with_open_text tmp (fun oc -> Printf.fprintf oc "%d\n" !fastest_probe);
      Sys.rename tmp f
  | None -> ()

(* Samples and stretches whose probe ran within [slack] times the
   fastest are quiet. A ladder of slacks (1.10, else 1.25, else 1.5) was
   tried first: each run then took the tightest that left enough quiet
   samples, and its figures jumped by 15-30% with the slack it could
   afford. *)
let slack = 1.25

(* [slack] when [count limit] (how many samples or stretches have a
   probe of at most [limit] ns) reaches [min]; infinity otherwise. *)
let pick_slack ~min count =
  if count (slack *. float_of_int !fastest_probe) >= min then slack else Float.infinity

(* The samples of [v] from quiet stretches when there are [min] of them,
   and [slack]; otherwise the [min] samples with the quietest stretches,
   and infinity. *)
let quiet_samples ~min v =
  let slack = pick_slack ~min (fun limit -> Vec.length (Vec.tagged_upto v limit)) in
  if Float.is_finite slack then (Vec.tagged_upto v (slack *. float_of_int !fastest_probe), slack)
  else (Vec.lowest_tagged v min, slack)

(* Set-up time, in pieces. One set-up lasts 3-20 ms, longer than most
   quiet stretches of a busy host, so a whole set-up seldom runs quiet.
   But a set-up is deterministic for its seed: cut at the end of every
   quantum its harness advances, it falls into the same pieces on every
   repeat (up to a few ms each: the construction before the first
   quantum, the quanta where devices bind or warm-up flows install).
   Each piece is timed on its own and tagged with the slower of the
   probes around it, the probes' own time left out; the set-up time is
   the sum over the pieces of the median of each piece's quiet
   repeats. *)
module Pieces = struct
  let on = ref false
  let cur = ref (Vec.create ())
  let t0 = ref 0
  let last_probe = ref 0

  let start () =
    cur := Vec.create ();
    last_probe := probe_ns ();
    on := true;
    t0 := now_ns ()

  (* Ends the current piece. *)
  let mark () =
    let t = now_ns () in
    Vec.push !cur (float_of_int (t - !t0));
    let p = probe_ns () in
    Vec.tag !cur (float_of_int (max !last_probe p));
    last_probe := p;
    t0 := now_ns ()

  (* Ends the set-up; returns its pieces, in order. *)
  let stop () =
    mark ();
    on := false;
    !cur

  (* The fewest quiet repeats any piece of [setups] (each a [stop]
     result, all cut into as many pieces) has. *)
  let fewest_quiet setups =
    let limit = slack *. float_of_int !fastest_probe in
    let fewest = ref max_int in
    for i = 0 to Vec.length (List.hd setups) - 1 do
      let c = List.fold_left (fun c v -> if v.Vec.tags.(i) <= limit then c + 1 else c) 0 setups in
      fewest := min !fewest c
    done;
    !fewest

  (* The set-up seconds over the repeats [setups]: the sum over the
     pieces of the median of each piece's quiet repeats; and the loosest
     slack any piece needed. *)
  let estimate ~min setups =
    let total = ref 0. and loosest = ref 0. in
    for i = 0 to Vec.length (List.hd setups) - 1 do
      let piece = Vec.create () in
      List.iter
        (fun v ->
          Vec.push piece (Vec.get v i);
          Vec.tag piece v.Vec.tags.(i))
        setups;
      let quiet, slack = quiet_samples ~min piece in
      total := !total +. Vec.median quiet;
      loosest := Float.max !loosest slack
    done;
    (!total /. 1e9, !loosest)
end
