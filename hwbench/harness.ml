(* The two-loop harness. Every router (and, in a fleet, the manager and
   observer) lives on [rloop]; devices, the upstream Internet node and
   the benchmark's own clients live on [dloop]. The two loops advance in
   lockstep quanta shorter than the 1 ms hop delay, routers first, so a
   frame crossing between the loops always lands in the receiving loop's
   future. Router work is timed at the router's public entry points and
   around router-loop advances; everything on [dloop] and every egress
   callback is the load generator's time. *)

open Hw_packet
module R = Hw_router.Router
module EL = Hw_sim.Event_loop
module Vec = Acct.Vec

(* Classes of router entry calls. *)
let c_rx_data = 0 (* LAN data frame *)
let c_rx_first = 1 (* first frame of a new outbound flow *)
let c_rx_arp = 2
let c_rx_dns = 3 (* a device's DNS query *)
let c_rx_dhcp = 4
let c_up_dns = 5 (* upstream resolver answer *)
let c_up_data = 6 (* any other frame on the upstream port *)
let c_rpc = 7
let c_http = 8
let c_usb = 9
let c_link = 10
let c_fleet_query = 11 (* Manager.query *)
let c_fleet_mgr = 12 (* Manager.datagram *)
let c_fleet_rtr = 13 (* Agent.handle_datagram *)
let c_scrape = 14 (* Observer.scrape_now *)
let c_rx_refused = 15 (* first frame of a flow the policy refuses *)
let n_cls = 16

(* Tags the generators attach to frames they build; [tag_auto] frames
   (from Hw_sim devices and the Internet node) are classified from their
   bytes. *)
let tag_auto = -1

(* 1/1024 s: below the 1 ms hop delay and exact in binary, so integer
   seconds (where the routers' periodic timers fire) are quantum ends. *)
let quantum = 1. /. 1024.
let hop = 0.001

type stats = {
  cls : Acct.acc array;
  timer : Acct.acc;  (** router-loop advances: router timers *)
  mutable loop_ns : int;  (** traced: quanta minus their timed parts *)
  mutable sim_ns : int;  (** device loop, generators and egress callbacks *)
  mutable co_ns : int;  (** harnesses advanced alongside this one *)
  mutable frames : int;
  ticks : Vec.t;  (** self time of each timer-bearing quantum *)
  mutable flow_peak : int;
  mutable wall_ns : int;  (** wall time of the measured stretches *)
  mutable quanta : int;
  log : Vec.t;
      (** per measured stretch, [log_width] values: the probe ns before
          and after it, its quanta, timer ns, entry ns, frames, and 1 if
          it ends on a simulated second (it holds the 1 s timers) *)
  (* traced only: rx calls classified by outcome *)
  hit_small : Acct.acc;  (** LAN batches of 64 B frames that all hit *)
  hit_large : Acct.acc;  (** ... of 1500 B frames *)
  upstream_rx : Acct.acc;  (** every frame on the upstream port *)
  new_flow : Acct.acc;  (** first packets that raised a packet-in *)
  capture : (int * string) Queue.t;  (** frames for the layer replays *)
  miss_capture : (int * string) Queue.t;  (** frames that missed the flow table *)
}

let new_stats () =
  {
    cls = Array.init n_cls (fun _ -> Acct.acc ());
    timer = Acct.acc ();
    loop_ns = 0;
    sim_ns = 0;
    co_ns = 0;
    frames = 0;
    ticks = Vec.create ();
    flow_peak = 0;
    wall_ns = 0;
    quanta = 0;
    log = Vec.create ();
    hit_small = Acct.acc ();
    hit_large = Acct.acc ();
    upstream_rx = Acct.acc ();
    new_flow = Acct.acc ();
    capture = Queue.create ();
    miss_capture = Queue.create ();
  }

let capture_limit = 4096
let log_width = 7

(* Latency samples (ns), in arrival order. *)
type samples = {
  first_packet : Vec.t;
  dns : Vec.t;
  join : Vec.t;
  query : Vec.t;
  policy : Vec.t;
  fed_query : Vec.t;
}

let new_samples () =
  {
    first_packet = Vec.create ();
    dns = Vec.create ();
    join = Vec.create ();
    query = Vec.create ();
    policy = Vec.create ();
    fed_query = Vec.create ();
  }

let sample_vecs s = [ s.first_packet; s.dns; s.join; s.query; s.policy; s.fed_query ]
let entry_ns s = Array.fold_left (fun a c -> a + c.Acct.ns) 0 s.cls
let busy_ns s = s.timer.Acct.ns + entry_ns s

type t = {
  rloop : EL.t;
  dloop : EL.t;
  mutable k : int;  (** quanta advanced *)
  mutable traced : bool;
  mutable st : stats;
  mutable sm : samples;
  mutable homes : home list;
}

and home = {
  h : t;
  router : R.t;
  net : Hw_sim.Internet.t option;
  devs : (string, dev) Hashtbl.t;  (** by MAC bytes *)
  mutable egress : port:int -> string -> unit;
      (** the workload's view of every frame the router transmits, run
          before default delivery *)
  mutable rpc_out : to_:string -> string -> unit;
  mutable after_rx : cls:int -> port:int -> string -> int -> unit;
      (** (class, port, frame, self ns), outside the timed region *)
  mutable default_delivery : bool;
  (* the figure 1/2 interfaces' view of the RPC server *)
  mutable rpc_seq : int32;
  mutable fig1_pending : bool;
  mutable reply_bytes : int;
  mutable publishes : int;
  m_packet_ins : unit -> int;
  m_misses : unit -> int;
}

and dev = {
  mac : Mac.t;
  mac_bytes : string;
  port : int;
  device : Hw_sim.Device.t option;
  mutable stub_rx : string -> unit;
}

let create ?(traced = false) () =
  {
    rloop = EL.create ~metrics:(Hw_metrics.Registry.create ()) ();
    dloop = EL.create ~metrics:(Hw_metrics.Registry.create ()) ();
    k = 0;
    traced;
    st = new_stats ();
    sm = new_samples ();
    homes = [];
  }

let now_r h = EL.now h.rloop
let now_d h = EL.now h.dloop

let sim h f =
  let self = Acct.region f in
  h.st.sim_ns <- h.st.sim_ns + self

(* One timed router entry call; returns its self time. *)
let call h cls ~items f =
  let self = Acct.region f in
  Acct.add h.st.cls.(cls) ~ns:self ~items;
  self

let counter_fn reg name =
  match Hw_metrics.Registry.find reg name with
  | Some (Hw_metrics.Registry.Counter c) -> fun () -> Hw_metrics.Counter.value c
  | _ -> fun () -> 0

let counter_value reg name = counter_fn reg name ()

(* Controller channel drops across every router of the harness: each
   one wipes a router's flow table on reconnect. *)
let channel_drops h =
  List.fold_left
    (fun a home -> a + counter_value (R.metrics home.router) "ctrl_datapath_leave_total")
    0 h.homes

(* ------------------------------------------------------------------ *)
(* Frame classification by bytes (no decode)                            *)
(* ------------------------------------------------------------------ *)

let u16 s off = if String.length s >= off + 2 then String.get_uint16_be s off else -1

let classify_lan frame =
  match u16 frame 12 with
  | 0x0806 -> c_rx_arp
  | 0x0800
    when String.length frame > 37 && Char.code frame.[23] = 17 -> (
      match u16 frame 36 with 67 -> c_rx_dhcp | 53 -> c_rx_dns | _ -> c_rx_data)
  | _ -> c_rx_data

let classify_up frame =
  if u16 frame 12 = 0x0806 then c_rx_arp
  else if u16 frame 12 = 0x0800 && String.length frame > 35 && Char.code frame.[23] = 17
     && u16 frame 34 = 53
  then c_up_dns
  else c_up_data

(* ------------------------------------------------------------------ *)
(* Router ingress                                                       *)
(* ------------------------------------------------------------------ *)

let capture q item = if Queue.length q < capture_limit then Queue.push item q

(* Traced bookkeeping around one rx call: outcome by counter deltas,
   inputs kept for the replays. *)
let traced_rx home ~cls ~port ~items frames f =
  let st = home.h.st in
  let pi0 = ref 0 and m0 = ref 0 in
  sim home.h (fun () ->
      pi0 := home.m_packet_ins ();
      m0 := home.m_misses ());
  let self = f () in
  let missed = ref false in
  sim home.h (fun () ->
      missed := home.m_misses () - !m0 > 0;
      List.iter
        (fun fr ->
          capture st.capture fr;
          if !missed then capture st.miss_capture fr)
        frames;
      if port = R.upstream_port then Acct.add st.upstream_rx ~ns:self ~items;
      (* a first packet, tagged or found by its packet-in *)
      if
        (cls = c_rx_first || (cls = c_rx_data && port <> R.upstream_port))
        && home.m_packet_ins () - !pi0 > 0
      then Acct.add st.new_flow ~ns:self ~items);
  (self, !missed)

let rx home ~tag ~port frame =
  let h = home.h in
  let cls =
    if tag <> tag_auto then tag
    else if port = R.upstream_port then classify_up frame
    else classify_lan frame
  in
  let run () = call h cls ~items:1 (fun () -> R.receive_frame home.router ~in_port:port frame) in
  let self =
    if h.traced then fst (traced_rx home ~cls ~port ~items:1 [ (port, frame) ] run) else run ()
  in
  h.st.frames <- h.st.frames + 1;
  sim h (fun () -> home.after_rx ~cls ~port frame self)

(* A batch of same-size frames from one side; [large] picks the traced
   hit class. *)
let rx_batch home ~cls ~port ~large frames =
  let h = home.h in
  let n = List.length frames in
  let run () = call h cls ~items:n (fun () -> R.receive_frames home.router frames) in
  if h.traced then begin
    let self, missed = traced_rx home ~cls ~port ~items:n frames run in
    if (not missed) && port <> R.upstream_port then
      Acct.add (if large then h.st.hit_large else h.st.hit_small) ~ns:self ~items:n
  end
  else ignore (run ());
  h.st.frames <- h.st.frames + n

(* A frame sent on [dloop] reaches the router one hop later. *)
let send_to_router home ?(tag = tag_auto) ~port frame =
  let h = home.h in
  EL.at h.rloop (now_d h +. hop) (fun () -> rx home ~tag ~port frame)

let to_dloop h f = EL.at h.dloop (now_r h +. hop) f

(* Default egress: upstream frames go to the Internet node, LAN frames to
   the device(s) they are addressed to, one hop later. *)
let deliver_default home ~port frame =
  let h = home.h in
  if port = R.upstream_port then
    match home.net with
    | Some net -> to_dloop h (fun () -> Hw_sim.Internet.deliver net frame)
    | None -> ()
  else begin
    let give d =
      if d.port = port then
        to_dloop h (fun () ->
            (match d.device with Some dv -> Hw_sim.Device.deliver dv frame | None -> ());
            d.stub_rx frame)
    in
    if String.length frame >= 6 then
      match Hashtbl.find_opt home.devs (String.sub frame 0 6) with
      | Some d -> give d
      | None ->
          if Char.code frame.[0] land 1 = 1 then Hashtbl.iter (fun _ d -> give d) home.devs
  end

(* Drop probability armed on every router's transmit fault plane once it
   is set up (0: disarmed); the self-test uses it to break the router. *)
let tx_drop = ref 0.

let arm_faults h =
  if !tx_drop > 0. then
    List.iter
      (fun home ->
        Hw_fault.Fault.set_plan (R.faults home.router).Hw_fault.Fault.tx
          [ Hw_fault.Fault.Drop !tx_drop ])
      h.homes

let add_home ?wal_store ?config ?(with_net = true) ?(seed = 1) h =
  let router = R.create ?config ?wal_store ~fault_seed:seed ~loop:h.rloop () in
  let reg = R.metrics router in
  let home_ref = ref None in
  let net =
    if with_net then begin
      let net =
        Hw_sim.Internet.create ~loop:h.dloop
          ~send:(fun frame ->
            match !home_ref with
            | Some home -> send_to_router home ~port:R.upstream_port frame
            | None -> ())
          ()
      in
      Hw_sim.Internet.add_default_zone net;
      Some net
    end
    else None
  in
  let home =
    {
      h;
      router;
      net;
      devs = Hashtbl.create 64;
      egress = (fun ~port:_ _ -> ());
      rpc_out = (fun ~to_:_ _ -> ());
      after_rx = (fun ~cls:_ ~port:_ _ _ -> ());
      default_delivery = true;
      rpc_seq = 0l;
      fig1_pending = false;
      reply_bytes = 0;
      publishes = 0;
      m_packet_ins = (fun () -> R.packet_ins router);
      m_misses = counter_fn reg "dp_flow_misses_total";
    }
  in
  home_ref := Some home;
  R.set_transmit router (fun ~port_no frame ->
      sim h (fun () ->
          home.egress ~port:port_no frame;
          if home.default_delivery then deliver_default home ~port:port_no frame));
  R.set_rpc_send router (fun ~to_ data -> sim h (fun () -> home.rpc_out ~to_ data));
  h.homes <- home :: h.homes;
  home

(* A device on the wireless port: a real Hw_sim device (DHCP client, and
   app traffic when it has profiles), whose frames also reach [stub_rx]
   for the benchmark's own traffic from the same station. *)
let add_device home ?(seed = 1) (cfg : Hw_sim.Device.config) =
  let port = R.wireless_port in
  let h = home.h in
  let device =
    Hw_sim.Device.create ~seed ~config:cfg ~loop:h.dloop
      ~send:(fun frame -> send_to_router home ~port frame)
      ()
  in
  let d =
    {
      mac = cfg.Hw_sim.Device.mac;
      mac_bytes = Mac.to_bytes cfg.Hw_sim.Device.mac;
      port;
      device = Some device;
      stub_rx = ignore;
    }
  in
  Hashtbl.replace home.devs d.mac_bytes d;
  d

(* ------------------------------------------------------------------ *)
(* Lockstep advance                                                     *)
(* ------------------------------------------------------------------ *)

let advance h =
  let k = h.k + 1 in
  let t1 = float_of_int k *. quantum in
  let self = Acct.region (fun () -> EL.run_until h.rloop t1) in
  Acct.add h.st.timer ~ns:self ~items:1;
  if k land 1023 = 0 then begin
    if h.traced then Vec.push h.st.ticks (float_of_int self);
    List.iter
      (fun home -> h.st.flow_peak <- max h.st.flow_peak (R.flows_installed home.router))
      h.homes
  end;
  sim h (fun () -> EL.run_until h.dloop t1);
  h.k <- k

(* One quantum. Traced, the quantum is a region of its own: what its
   timed parts leave over (the bookkeeping above) is loop overhead. *)
let step h =
  if h.traced then begin
    Acct.enter ();
    advance h;
    h.st.loop_ns <- h.st.loop_ns + Acct.leave ()
  end
  else advance h

(* Loop overhead per quantum: the self time of a traced quantum on a
   harness with nothing in it. *)
let bookkeeping_ns () =
  let h = create ~traced:true () in
  let n = 1 lsl 17 in
  for _ = 1 to n do
    step h
  done;
  float_of_int h.st.loop_ns /. float_of_int n

(* A quantum outside the measured run: during a timed set-up, it ends a
   piece of it. *)
let step_unmeasured h =
  step h;
  if !Acct.Pieces.on then Acct.Pieces.mark ()

let run_for h seconds =
  let target = h.k + int_of_float (Float.round (seconds /. quantum)) in
  while h.k < target do
    step_unmeasured h
  done

(* Advance until [cond ()] holds, at most [within] virtual seconds;
   returns whether it held. *)
let run_until_cond h ~within cond =
  let limit = h.k + int_of_float (within /. quantum) in
  while (not (cond ())) && h.k < limit do
    step_unmeasured h
  done;
  cond ()

(* A harness advanced alongside the measured one, [per_step] of its
   quanta per measured quantum, so its samples spread over the run. *)
type co = { ch : t; per_step : float; mutable due : float }

let co ch ~per_step = { ch; per_step; due = 0. }

let stretch_ns = 500_000

(* Advance [sim_seconds] of virtual time, or until [wall_cap] seconds
   of wall time have passed, whichever comes first, in stretches of at
   most 64 quanta and about [stretch_ns] of wall time that never cross a
   simulated second. With [traced_st], half of the simulated seconds,
   picked by a hash of their number so that no periodic work of the
   workload falls in one half only, run traced on those stats and the
   others untraced on [h.st]: both halves see the same router state and
   the same host. Each stretch is logged, and the latency samples taken
   in it tagged, with the slower of the probes around it. *)
let run_measured ?(co = []) ?traced_st h ~sim_seconds ~wall_cap =
  let target = h.k + int_of_float (Float.round (sim_seconds /. quantum)) in
  let deadline = Acct.now_ns () + int_of_float (wall_cap *. 1e9) in
  let plain = h.st in
  let vecs = Array.of_list (List.concat_map (fun c -> sample_vecs c.ch.sm) co @ sample_vecs h.sm) in
  let probe_before = ref (Acct.probe_ns ()) in
  while h.k < target && Acct.now_ns () < deadline do
    let st =
      match traced_st with
      | Some t when Hashtbl.hash (h.k lsr 10) land 1 = 1 ->
          h.traced <- true;
          t
      | _ ->
          h.traced <- false;
          plain
    in
    h.st <- st;
    let k0 = h.k and timer0 = st.timer.Acct.ns and entry0 = entry_ns st in
    let frames0 = st.frames in
    let t0 = Acct.now_ns () in
    let until = t0 + stretch_ns in
    let rec go () =
      step h;
      if co <> [] then begin
        Acct.enter ();
        List.iter
          (fun c ->
            c.due <- c.due +. c.per_step;
            while c.due >= 1. do
              step c.ch;
              c.due <- c.due -. 1.
            done)
          co;
        (* whole duration: the calls nested here are the other harness's *)
        st.co_ns <- st.co_ns + Acct.leave_total ()
      end;
      if h.k < target && h.k land 1023 <> 0 && h.k - k0 < 64 && Acct.now_ns () < until then go ()
    in
    go ();
    st.wall_ns <- st.wall_ns + (Acct.now_ns () - t0);
    st.quanta <- st.quanta + (h.k - k0);
    let probe_after = Acct.probe_ns () in
    Array.iter (fun v -> Vec.tag v (float_of_int (max !probe_before probe_after))) vecs;
    List.iter
      (fun x -> Vec.push st.log (float_of_int x))
      [
        !probe_before;
        probe_after;
        h.k - k0;
        st.timer.Acct.ns - timer0;
        entry_ns st - entry0;
        st.frames - frames0;
        (if h.k land 1023 = 0 then 1 else 0);
      ];
    probe_before := probe_after
  done;
  h.st <- plain;
  h.traced <- false

(* Per simulated second, over the quiet stretches of [st]'s log: those
   whose slower probe is within [Acct.slack] of the fastest, when that
   leaves [min_stretches] of them, [min_stretches / 10] of them holding
   the 1 s timers. Long stretches are likelier to see the host change and be
   left out, and the stretch that holds the 1 s timers is the longest of
   its second; so the two kinds are averaged apart, and a simulated
   second is one timer stretch plus the rest of its quanta at the other
   stretches' rate. *)
type quiet = {
  slack : float;
  share : float;  (** of the stretches *)
  timer_ns : float;
  entry_ns : float;
  frames : float;
}

let min_stretches = 200

let quiet_totals st =
  let n = Vec.length st.log / log_width in
  let field i j = Vec.get st.log ((i * log_width) + j) in
  let probe i = Float.max (field i 0) (field i 1) in
  let count timers limit =
    let c = ref 0 in
    for i = 0 to n - 1 do
      if probe i <= limit && field i 6 = timers then incr c
    done;
    !c
  in
  let slack =
    Acct.pick_slack ~min:min_stretches (fun limit -> min (count 0. limit) (10 * count 1. limit))
  in
  (* the probe limit for the stretches that do ([timers] = 1.) or do not
     hold the 1 s timers; when no slack leaves enough of them, that of the
     quietest [min_stretches] of each kind ([min_stretches / 10] of the
     timer ones) *)
  let limit_of timers =
    if Float.is_finite slack then slack *. float_of_int !Acct.fastest_probe
    else begin
      let tags = Vec.create () in
      for i = 0 to n - 1 do
        if field i 6 = timers then Vec.push tags (probe i)
      done;
      let k = if timers = 1. then min_stretches / 10 else min_stretches in
      Vec.percentile tags (float_of_int k /. float_of_int (max 1 (Vec.length tags)))
    end
  in
  let timer_limit = limit_of 1. and other_limit = limit_of 0. in
  let quiet i = probe i <= if field i 6 = 1. then timer_limit else other_limit in
  (* over the quiet stretches that do or do not hold the 1 s timers: the
     sum of field [j], and their number *)
  let sum timers j =
    let t = ref 0. and c = ref 0. in
    for i = 0 to n - 1 do
      if quiet i && field i 6 = timers then begin
        t := !t +. field i j;
        c := !c +. 1.
      end
    done;
    (!t, !c)
  in
  let mean timers j =
    let t, c = sum timers j in
    if c = 0. then 0. else t /. c
  in
  let rest_quanta = 1024. -. mean 1. 2 and other_quanta, _ = sum 0. 2 in
  let per_sim_s j =
    let other, _ = sum 0. j in
    mean 1. j +. if other_quanta = 0. then 0. else rest_quanta *. other /. other_quanta
  in
  {
    slack;
    share = (if n = 0 then 0. else (snd (sum 0. 2) +. snd (sum 1. 2)) /. float_of_int n);
    timer_ns = per_sim_s 3;
    entry_ns = per_sim_s 4;
    frames = per_sim_s 5;
  }
