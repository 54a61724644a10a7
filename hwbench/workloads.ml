(* The three workloads and the path probe. Each [setup_*] builds a fresh
   harness until every device is bound and warm-up flows are installed;
   each returns a [run] record the measuring loop drives. *)

open Hw_packet
module R = Hw_router.Router
module EL = Hw_sim.Event_loop
module H = Harness
module D = Clients
module Device = Hw_sim.Device
module Vec = Acct.Vec

type run = {
  h : H.t;  (** the harness the end-to-end metrics are measured on *)
  start : unit -> unit;  (** start the measured traffic *)
  stop : unit -> unit;  (** stop offering new work, drain, check *)
  statements : string list;  (** hwdb statements the interfaces ran *)
}

let fail_setup why = failwith ("setup: " ^ why)

let bound d = Device.dhcp_state d = Device.Bound

let bind_all h devices =
  List.iter Device.start devices;
  if not (H.run_until_cond h ~within:30. (fun () -> List.for_all bound devices)) then
    fail_setup "devices did not bind"

let wireless ~name ~mac apps = Device.wireless ~distance_m:4. ~name ~mac apps

(* Teach the router the Internet next hop's port: one proxy-ARP exchange. *)
let learn_next_hop (host : D.host) =
  let got = ref false in
  D.with_arp host (Ip.of_octets 93 184 216 34) (fun () -> got := true);
  if not (H.run_until_cond host.D.home.H.h ~within:1. (fun () -> !got)) then
    fail_setup "no proxy-ARP answer from upstream"

let device_host home ~seed ~name ~mac =
  let d = H.add_device home ~seed (wireless ~name ~mac []) in
  (D.make_host home d, Option.get d.H.device)

(* Latency bookkeeping every household gets: first packets, DNS (query
   plus upstream answer), joins (DISCOVER plus REQUEST), figure-1
   replies. *)
let instrument (home : H.home) =
  home.H.after_rx <-
    (fun ~cls ~port:_ frame self ->
      if cls = H.c_rx_first then Vec.push home.H.h.H.sm.H.first_packet (float_of_int self);
      D.note_dns_call ~cls frame self;
      D.note_dhcp_call home ~cls frame self);
  home.H.rpc_out <- D.rpc_out home

(* The kid governed by the USB key and the guest toggled through the
   control API (figures 3 and 4). *)
let policy_kit home ~seed ~base =
  let kid, kid_dev = device_host home ~seed ~name:"kids-tablet" ~mac:(Mac.local base) in
  let guest_d = H.add_device home ~seed (wireless ~name:"guest-phone" ~mac:(Mac.local (base + 1)) []) in
  let guest_dev = Option.get guest_d.H.device in
  D.permit home (Device.mac kid_dev);
  D.permit home (Device.mac guest_dev);
  D.install_kid_policy home ~kid_mac:(Device.mac kid_dev);
  ( [ kid_dev; guest_dev ],
    { D.guest = Device.mac guest_dev; guest_denied = false; kid; site = "facebook.com"; key_in = false } )

(* ------------------------------------------------------------------ *)
(* The path probe: a household of its own, run after every workload     *)
(* ------------------------------------------------------------------ *)

(* Every end-to-end metric is printed for every workload. The paths a
   workload does not drive itself are measured on the probe household,
   run after the workload on a router of its own. Over 110 simulated
   seconds at [scale] 1, it keeps two stations opening flows and four
   devices leaving and rejoining, and sends 2000 figure-1 queries, 1000
   permit/deny calls and 100 USB key toggles. *)
type probe = {
  ph : H.t;
  scale : float;
  p_home : H.home;
  p_hosts : D.host list;  (** flows: DNS + ARP + first packet *)
  p_sites : D.sites;
  p_cyclers : Device.t list;
  p_target : D.policy_target;
  p_rng : Hw_sim.Prng.t;
  p_lanes : D.lanes;
  p_cyc : D.cycler;
  mutable p_drops : int;
}

let setup_probe ~seed ~traced ~scale =
  let h = H.create ~traced () in
  let home = H.add_home h ~seed in
  instrument home;
  let hosts =
    List.init 2 (fun i ->
        fst (device_host home ~seed ~name:(Printf.sprintf "probe-%d" i) ~mac:(Mac.local (0x300 + i))))
  in
  let cyclers =
    List.init 4 (fun i ->
        let d =
          H.add_device home ~seed
            (wireless ~name:(Printf.sprintf "cycler-%d" i) ~mac:(Mac.local (0x310 + i)) [])
        in
        Option.get d.H.device)
  in
  let kit_devs, target = policy_kit home ~seed ~base:0x320 in
  let devs = List.map (fun (h : D.host) -> Option.get h.D.dev.H.device) hosts @ cyclers @ kit_devs in
  List.iter (fun d -> D.permit home (Device.mac d)) devs;
  bind_all h devs;
  let target_ = target in
  home.H.egress <-
    (fun ~port frame ->
      if port = R.upstream_port then D.check_upstream frame
      else
        D.check_no_ack
          ~barred:(fun m -> target_.D.guest_denied && Mac.equal m target_.D.guest)
          frame);
  {
    ph = h;
    scale;
    p_home = home;
    p_hosts = hosts;
    p_sites =
      D.make_sites ~tag:"probe" ~seed ~n_popular:64 ~hit_share:0.75 ~block_share:0.
        (Option.get home.H.net);
    p_cyclers = cyclers;
    p_target = target;
    p_rng = Hw_sim.Prng.create ~seed:(seed + 17);
    p_lanes = { D.running = true; remaining = -1 };
    p_cyc = { D.cycling = false; joins_left = -1; gen = 0 };
    p_drops = 0;
  }

(* [f] every [period] simulated seconds, [n] times. *)
let repeat (h : H.t) period n f =
  let remaining = ref n in
  let rec go () =
    if !remaining > 0 then begin
      decr remaining;
      f ();
      EL.after h.H.dloop period go
    end
  in
  EL.after h.H.dloop period go

let start_probe p =
  let home = p.p_home in
  let h = p.ph in
  H.arm_faults h;
  p.p_drops <- H.channel_drops h;
  h.H.st <- H.new_stats ();
  h.H.sm <- H.new_samples ();
  List.iter (fun host -> D.lane p.p_lanes p.p_sites host ~think:0.1) p.p_hosts;
  D.start_cycling p.p_cyc h p.p_rng p.p_cyclers ~online:0.3 ~offline:0.1;
  let on_router f () = EL.at h.H.rloop (H.now_d h +. H.hop) f in
  let n x = int_of_float (Float.round (p.scale *. float_of_int x)) in
  repeat h 0.05 (n 2000) (fun () -> D.poll_fig1 home);
  repeat h 0.1 (n 1000) (on_router (fun () -> D.toggle_guest home p.p_target));
  repeat h 1.0 (n 100) (on_router (fun () -> D.toggle_key home p.p_target))

let probe_sim_s p = 110. *. p.scale

(* After the measured run: let the last flows, joins and verdicts settle
   and be checked. *)
let finish_probe p =
  p.p_lanes.D.running <- false;
  p.p_cyc.D.cycling <- false;
  H.run_for p.ph 6.;
  let dropped = H.channel_drops p.ph - p.p_drops in
  if dropped > 0 then D.fail (Printf.sprintf "probe: controller channel dropped %d times" dropped)

(* ------------------------------------------------------------------ *)
(* stream: steady forwarding over installed flows                      *)
(* ------------------------------------------------------------------ *)

type sflow = { small : string; large : string; in_port : int; out_port : int }

(* 32 stations, 16 flows each, half of them inbound: 512, not the ~2k
   the stream should hold. This router cannot hold more: above ~680
   installed flows the 1 s flow-stats reply outgrows OpenFlow's 16-bit
   message length, the controller drops the channel and the reconnect
   wipes the flow table. [--stream-flows] overrides the count; the
   self-test uses it to check whether that defect is still there. *)
let stream_devices = 32
let stream_flows = ref 512
let stream_batch = 16

let setup_stream ~seed ~traced =
  let stream_flows = !stream_flows in
  let h = H.create ~traced () in
  let home = H.add_home h ~seed in
  (* the sites stream into the home; they do not answer *)
  Hw_sim.Internet.set_response_factor (Option.get home.H.net) ~port:9000 0.;
  let rng = Hw_sim.Prng.create ~seed in
  let devs =
    List.init stream_devices (fun i ->
        H.add_device home ~seed
          (wireless ~name:(Printf.sprintf "sta-%d" i) ~mac:(Mac.local (0x100 + i)) []))
  in
  List.iter (fun (d : H.dev) -> D.permit home d.H.mac) devs;
  bind_all h (List.map (fun (d : H.dev) -> Option.get d.H.device) devs);
  learn_next_hop (D.make_host home (List.hd devs));
  let devs = Array.of_list devs in
  (* immutable frame templates, the flow's index in the payload's first
     two bytes: offering a frame allocates nothing *)
  let flows =
    Array.init stream_flows (fun i ->
        let d = devs.(i mod stream_devices) in
        let dev_ip = Option.get (Device.ip (Option.get d.H.device)) in
        let site = Ip.add (Ip.of_octets 100 100 0 0) (i / 2) in
        let port = 30000 + (i / 2) in
        let outbound = i land 1 = 0 in
        let build size =
          let payload = Bytes.make (size - 42) '\000' in
          Bytes.set_uint16_be payload 0 i;
          let payload = Bytes.to_string payload in
          Packet.encode
            (if outbound then
               Packet.udp_packet ~src_mac:d.H.mac ~dst_mac:Hw_sim.Internet.mac ~src_ip:dev_ip
                 ~dst_ip:site ~src_port:port ~dst_port:9000 payload
             else
               Packet.udp_packet ~src_mac:Hw_sim.Internet.mac ~dst_mac:d.H.mac ~src_ip:site
                 ~dst_ip:dev_ip ~src_port:9000 ~dst_port:port payload)
        in
        {
          small = build 64;
          large = build 1500;
          in_port = (if outbound then R.wireless_port else R.upstream_port);
          out_port = (if outbound then R.upstream_port else R.wireless_port);
        })
  in
  (* every flow's offered frames leave as many times as offered, never
     more, and on the flow's port *)
  let offered = Array.make stream_flows 0 and delivered = Array.make stream_flows 0 in
  let oracle ~port frame =
    if String.length frame >= 44 && H.u16 frame 12 = 0x0800 && H.u16 frame 36 <> 67 then begin
      let f = H.u16 frame 42 in
      if f < stream_flows then
        if flows.(f).out_port <> port then D.fail "frame left on the wrong port"
        else if delivered.(f) = offered.(f) then D.fail "frame delivered twice"
        else delivered.(f) <- delivered.(f) + 1
    end
  in
  home.H.egress <- oracle;
  let offer f ~large =
    offered.(f) <- offered.(f) + 1;
    let fl = flows.(f) in
    (fl.in_port, if large then fl.large else fl.small)
  in
  (* warm-up: the first frame of every flow installs it *)
  home.H.default_delivery <- false;
  Array.iteri
    (fun f _ ->
      let port, frame = offer f ~large:false in
      EL.at h.H.rloop (H.now_d h +. H.hop) (fun () -> H.rx home ~tag:H.c_rx_first ~port frame))
    flows;
  H.run_for h 0.05;
  home.H.default_delivery <- true;
  if R.flows_installed home.H.router < stream_flows then fail_setup "warm-up flows not installed";
  let running = ref false in
  let pi_at_start = ref 0 in
  (* one device-side batch and one upstream batch per quantum *)
  EL.every h.H.dloop H.quantum (fun () ->
      if !running then
        List.iter
          (fun outbound ->
            let large = Hw_sim.Prng.bool rng 0.5 in
            let frames =
              List.init stream_batch (fun _ ->
                  let f = (2 * Hw_sim.Prng.int rng (stream_flows / 2)) + if outbound then 0 else 1 in
                  offer f ~large)
            in
            let port = if outbound then R.wireless_port else R.upstream_port in
            let cls = if outbound then H.c_rx_data else H.c_up_data in
            EL.at h.H.rloop (H.now_d h +. H.hop) (fun () -> H.rx_batch home ~cls ~port ~large frames))
          [ true; false ]);
  let start () =
    home.H.egress <- oracle;
    home.H.default_delivery <- false;
    pi_at_start := R.packet_ins home.H.router;
    running := true
  in
  let stop () =
    running := false;
    (* in-flight frames land within two hops *)
    H.run_for h 0.01;
    let total = Array.fold_left ( + ) 0 offered in
    D.ledger.D.attempted <- D.ledger.D.attempted + total;
    let missing = total - Array.fold_left ( + ) 0 delivered in
    if missing > 0 then begin
      D.ledger.D.failed <- D.ledger.D.failed + missing;
      D.ledger.D.notes <- Printf.sprintf "%d offered frames never left" missing :: D.ledger.D.notes
    end;
    Array.fill offered 0 stream_flows 0;
    Array.fill delivered 0 stream_flows 0;
    let pis = R.packet_ins home.H.router - !pi_at_start in
    if pis > 0 then D.fail (Printf.sprintf "%d packet-ins while streaming installed flows" pis);
    home.H.egress <- (fun ~port:_ _ -> ());
    home.H.default_delivery <- true
  in
  { h; start; stop; statements = [ D.fig1_statement ] }

(* ------------------------------------------------------------------ *)
(* churn: short flows to seeded names, some blocked, one pending device *)
(* ------------------------------------------------------------------ *)

let churn_devices = 16
(* one closed-loop lane per device: ~12 new flows per simulated second,
   which keeps the flow table (10 s idle timeout) near 300 entries *)
let churn_lanes = 1
let forged_ip = Ip.of_octets 10 0 0 250

let setup_churn ~seed ~traced =
  let h = H.create ~traced () in
  let home = H.add_home h ~seed in
  let net = Option.get home.H.net in
  let pairs =
    List.init churn_devices (fun i ->
        device_host home ~seed ~name:(Printf.sprintf "churn-%d" i) ~mac:(Mac.local (0x200 + i)))
  in
  let hosts = List.map fst pairs in
  let macs = List.map (fun (_, d) -> Device.mac d) pairs in
  List.iter (D.permit home) macs;
  D.define_group home "churn" macs;
  D.add_policy home
    {|{"id":"churn-sites","group":"churn","services":["allowed.example"],"days":"all","window":"always"}|};
  (* the pending device: never permitted, keeps trying *)
  let pending, pending_dev = device_host home ~seed ~name:"stranger" ~mac:(Mac.local 0x2ff) in
  instrument home;
  bind_all h (List.map snd pairs);
  Device.start pending_dev;
  let pending_mac = Device.mac pending_dev in
  let oracle ~port frame =
    if port = R.upstream_port then D.check_upstream ~forged:forged_ip frame
    else D.check_no_ack ~barred:(Mac.equal pending_mac) frame
  in
  home.H.egress <- oracle;
  learn_next_hop (List.hd hosts);
  let sites = D.make_sites ~tag:"churn" ~seed ~n_popular:256 ~hit_share:0.75 ~block_share:0.1 net in
  (* warm the proxy cache with the popular names *)
  let warm = ref 0 in
  Array.iteri
    (fun i (name, _) ->
      D.dns_query (List.nth hosts (i mod churn_devices)) name (fun _ -> incr warm))
    sites.D.popular;
  if not (H.run_until_cond h ~within:2. (fun () -> !warm = Array.length sites.D.popular)) then
    fail_setup "popular names did not resolve";
  let lanes = { D.running = false; remaining = -1 } in
  let rng = Hw_sim.Prng.create ~seed:(seed + 5) in
  let forged = ref 0 in
  EL.every h.H.dloop 1.0 (fun () ->
      if lanes.D.running then begin
        D.attempt ();
        incr forged;
        D.send pending ~tag:H.c_rx_refused
          (Packet.udp_packet ~src_mac:pending_mac ~dst_mac:Hw_sim.Internet.mac ~src_ip:forged_ip
             ~dst_ip:(Ip.add D.allowed_base (Hw_sim.Prng.int rng 1000))
             ~src_port:(10000 + (!forged land 8191))
             ~dst_port:D.data_port "let me in")
      end);
  let start () =
    home.H.egress <- oracle;
    lanes.D.running <- true;
    List.iter
      (fun host ->
        for _ = 1 to churn_lanes do
          D.lane lanes sites host ~think:1.2
        done)
      hosts
  in
  let stop () =
    lanes.D.running <- false;
    H.run_for h 6.;
    if bound pending_dev then D.fail "pending device bound"
  in
  { h; start; stop; statements = [ D.fig1_statement ] }

(* ------------------------------------------------------------------ *)
(* household_ui: the figure 1-4 household                               *)
(* ------------------------------------------------------------------ *)

let household_devices = 24

let setup_household ~seed ~traced =
  let h = H.create ~traced () in
  let home = H.add_home ~wal_store:(Hw_wal.Store.mem ()) h ~seed in
  let profiles = Array.of_list Hw_sim.App_profile.profiles in
  let devs =
    List.init household_devices (fun i ->
        let d =
          H.add_device home ~seed
            (Device.wireless
               ~distance_m:(2. +. float_of_int (i mod 12))
               ~name:(Printf.sprintf "home-%d" i) ~mac:(Mac.local (0x400 + i))
               [ profiles.(i mod Array.length profiles) ])
        in
        Option.get d.H.device)
  in
  List.iter (fun d -> D.permit home (Device.mac d)) devs;
  let pending = H.add_device home ~seed (wireless ~name:"stranger" ~mac:(Mac.local 0x4ff) []) in
  instrument home;
  let kit_devs, target = policy_kit home ~seed ~base:0x420 in
  bind_all h (devs @ kit_devs);
  Device.start (Option.get pending.H.device);
  let oracle ~port frame =
    if port <> R.upstream_port then
      D.check_no_ack
        ~barred:(fun m ->
          Mac.equal m pending.H.mac || (target.D.guest_denied && Mac.equal m target.D.guest))
        frame
  in
  D.subscribe_fig2 home;
  let rng = Hw_sim.Prng.create ~seed:(seed + 3) in
  let running = ref false in
  let cyc = { D.cycling = false; joins_left = -1; gen = 0 } in
  let on_router f () = EL.at h.H.rloop (H.now_d h +. H.hop) f in
  (* per-station link reports from the wireless interface *)
  EL.every h.H.dloop 1.0 (fun () ->
      List.iter
        (fun d ->
          match Device.rssi d with
          | Some rssi ->
              let st = Device.stats d in
              EL.at h.H.rloop (H.now_d h +. H.hop) (fun () ->
                  ignore
                    (H.call h H.c_link ~items:1 (fun () ->
                         R.report_link home.H.router ~mac:(Device.mac d) ~rssi
                           ~retries:st.Device.retries ~packets:st.Device.tx_packets)))
          | None -> ())
        devs);
  let on_dloop period f =
    EL.every h.H.dloop period (fun () -> if !running then f ())
  in
  on_dloop 0.25 (fun () -> D.poll_fig1 home);
  on_dloop 2.0 (fun () -> D.subscribe_fig2 home);
  on_dloop 2.0 (on_router (fun () -> D.toggle_guest home target));
  on_dloop 5.0 (on_router (fun () -> D.toggle_key home target));
  let start () =
    home.H.egress <- oracle;
    running := true;
    D.start_cycling cyc h rng devs ~online:20. ~offline:2.
  in
  let stop () =
    running := false;
    cyc.D.cycling <- false;
    H.run_for h 6.;
    if bound (Option.get pending.H.device) then D.fail "pending device bound"
  in
  { h; start; stop; statements = [ D.fig1_statement ] }
