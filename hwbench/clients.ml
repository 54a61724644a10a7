(* The benchmark's clients: stub hosts that open flows (DNS, ARP, first
   packet), devices that leave and rejoin, and the figure 1-4 interfaces.
   They run on the harness's device loop; their checks are the
   correctness oracles. *)

open Hw_packet
module R = Hw_router.Router
module EL = Hw_sim.Event_loop
module H = Harness
module Vec = Acct.Vec
module Http = Hw_control_api.Http
module Rpc = Hw_hwdb.Rpc

(* ------------------------------------------------------------------ *)
(* The operation ledger                                                 *)
(* ------------------------------------------------------------------ *)

type ledger = { mutable attempted : int; mutable failed : int; mutable notes : string list }

let ledger = { attempted = 0; failed = 0; notes = [] }
let attempt () = ledger.attempted <- ledger.attempted + 1

let fail why =
  ledger.failed <- ledger.failed + 1;
  if List.length ledger.notes < 8 then ledger.notes <- why :: ledger.notes

(* ------------------------------------------------------------------ *)
(* Control-plane helpers (public entry points, timed)                   *)
(* ------------------------------------------------------------------ *)

let http (home : H.home) ?(sample = false) meth path body =
  let resp = ref None in
  let self =
    H.call home.H.h H.c_http ~items:1 (fun () ->
        resp := Some (R.http home.H.router (Http.request ~body meth path)))
  in
  if sample then Vec.push home.H.h.H.sm.H.policy (float_of_int self);
  match !resp with Some r -> r.Http.status | None -> 0

(* Set-up calls through the control API; anything but success aborts. *)
let setup_call home meth path body =
  let status = http home meth path body in
  if status < 200 || status > 299 then
    failwith (Printf.sprintf "setup: control API %s -> %d" path status)

let permit home mac =
  setup_call home Http.POST (Printf.sprintf "/api/devices/%s/permit" (Mac.to_string mac)) ""

let define_group home name macs =
  setup_call home Http.PUT ("/api/groups/" ^ name)
    (Printf.sprintf {|{"members": [%s]}|}
       (String.concat "," (List.map (fun m -> "\"" ^ Mac.to_string m ^ "\"") macs)))

let add_policy home json = setup_call home Http.POST "/api/policies" json

(* ------------------------------------------------------------------ *)
(* Stub hosts: the benchmark's own traffic from a bound station         *)
(* ------------------------------------------------------------------ *)

type host = {
  home : H.home;
  dev : H.dev;
  arp_known : (Ip.t, unit) Hashtbl.t;
  arp_wait : (Ip.t, (unit -> unit) list) Hashtbl.t;
}

(* DNS transactions in flight, by id: (callback, query self ns, qname) *)
let dns_wait : (int, (Dns_wire.t -> unit) * int ref * string) Hashtbl.t = Hashtbl.create 256
let up_self : (string, int) Hashtbl.t = Hashtbl.create 256
let next_dns_id = ref 1
let next_port = ref 20000

let fresh_port () =
  next_port := if !next_port >= 60000 then 20000 else !next_port + 1;
  !next_port

let host_ip host =
  match host.dev.H.device with
  | Some d -> Option.value (Hw_sim.Device.ip d) ~default:Ip.any
  | None -> Ip.any

let stub_rx host frame =
  match Packet.decode frame with
  | Ok { Packet.l3 = Packet.Arp arp; _ } when arp.Arp.op = Arp.Reply -> (
      Hashtbl.replace host.arp_known arp.Arp.sender_ip ();
      match Hashtbl.find_opt host.arp_wait arp.Arp.sender_ip with
      | Some ks ->
          Hashtbl.remove host.arp_wait arp.Arp.sender_ip;
          List.iter (fun k -> k ()) (List.rev ks)
      | None -> ())
  | Ok { Packet.l3 = Packet.Ipv4 (_, Packet.Udp u); eth } when u.Udp.src_port = 53
    && Mac.equal eth.Ethernet.dst host.dev.H.mac -> (
      match Dns_wire.decode u.Udp.payload with
      | Ok resp when resp.Dns_wire.is_response -> (
          match Hashtbl.find_opt dns_wait resp.Dns_wire.id with
          | Some (k, q_self, qname) ->
              Hashtbl.remove dns_wait resp.Dns_wire.id;
              let up = Option.value (Hashtbl.find_opt up_self qname) ~default:0 in
              Hashtbl.remove up_self qname;
              Vec.push host.home.H.h.H.sm.H.dns (float_of_int (!q_self + up));
              k resp
          | None -> ())
      | _ -> ())
  | _ -> ()

let make_host home dev =
  let host = { home; dev; arp_known = Hashtbl.create 64; arp_wait = Hashtbl.create 8 } in
  dev.H.stub_rx <- stub_rx host;
  host

let send host ~tag pkt = H.send_to_router host.home ~tag ~port:host.dev.H.port (Packet.encode pkt)

let dns_query host name k =
  let id = !next_dns_id in
  next_dns_id := (id mod 65535) + 1;
  Hashtbl.replace dns_wait id (k, ref 0, Dns_wire.normalize_name name);
  let r = host.home.H.router in
  send host ~tag:H.c_rx_dns
    (Packet.dns_query_packet ~src_mac:host.dev.H.mac ~dst_mac:(R.router_mac r)
       ~src_ip:(host_ip host) ~dst_ip:(R.router_ip r) ~src_port:(fresh_port ())
       (Dns_wire.query ~id name Dns_wire.A))

(* Called with every DNS query call's self time and every upstream
   answer's: a cache miss costs both. *)
let note_dns_call ~cls frame self =
  if cls = H.c_rx_dns && String.length frame > 43 then begin
    match Hashtbl.find_opt dns_wait (String.get_uint16_be frame 42) with
    | Some (_, q, _) -> q := self
    | None -> ()
  end
  else if cls = H.c_up_dns && String.length frame > 42 then
    match Dns_wire.decode (String.sub frame 42 (String.length frame - 42)) with
    | Ok { Dns_wire.questions = { Dns_wire.qname; qtype = Dns_wire.A } :: _; _ } ->
        Hashtbl.replace up_self (Dns_wire.normalize_name qname) self
    | _ -> ()

(* Drop every transaction still in flight (their callbacks hold the
   harness they came from), so a finished run's state can be collected. *)
let forget_pending () =
  Hashtbl.reset dns_wait;
  Hashtbl.reset up_self

let with_arp host ip k =
  if Hashtbl.mem host.arp_known ip then k ()
  else
    match Hashtbl.find_opt host.arp_wait ip with
    | Some ks -> Hashtbl.replace host.arp_wait ip (k :: ks)
    | None ->
        Hashtbl.replace host.arp_wait ip [ k ];
        send host ~tag:H.c_rx_arp
          (Packet.arp_packet ~src_mac:host.dev.H.mac
             (Arp.request ~sender_mac:host.dev.H.mac ~sender_ip:(host_ip host) ~target_ip:ip))

let data_port = 7000

let udp_to host ~tag ~dst_ip ~src_port payload =
  send host ~tag
    (Packet.udp_packet ~src_mac:host.dev.H.mac ~dst_mac:Hw_sim.Internet.mac
       ~src_ip:(host_ip host) ~dst_ip ~src_port ~dst_port:data_port payload)

(* ------------------------------------------------------------------ *)
(* Flow lanes: closed-loop short flows to seeded names (churn)          *)
(* ------------------------------------------------------------------ *)

type sites = {
  tag : string;  (** keeps this set's fresh names apart from another set's *)
  rng : Hw_sim.Prng.t;
  popular : (string * Ip.t) array;
  mutable fresh : int;
  hit_share : float;  (** share of permitted flows to an already-cached name *)
  block_share : float;
}

let ip_of_index base i = Ip.add base i
let allowed_base = Ip.of_octets 100 64 0 0
let blocked_base = Ip.of_octets 198 18 0 0
let popular_base = Ip.of_octets 100 127 0 0
let is_blocked_ip ip = Int32.logand (Ip.to_int32 ip) 0xfffe0000l = Ip.to_int32 blocked_base

let make_sites ~tag ~seed ~n_popular ~hit_share ~block_share (net : Hw_sim.Internet.t) =
  Hw_sim.Internet.set_response_factor net ~port:data_port 0.;
  let popular =
    Array.init n_popular (fun i ->
        let name = Printf.sprintf "p%d.%s.allowed.example" i tag in
        let ip = ip_of_index popular_base i in
        Hw_sim.Internet.add_zone net name ip;
        (name, ip))
  in
  { tag; rng = Hw_sim.Prng.create ~seed; popular; fresh = 0; hit_share; block_share }

type pick = Allowed of string * Ip.t | Blocked of string * Ip.t

let pick_site sites net =
  let r = Hw_sim.Prng.float sites.rng in
  if r < sites.block_share then begin
    sites.fresh <- sites.fresh + 1;
    let name = Printf.sprintf "b%d.%s.blocked.example" sites.fresh sites.tag in
    let ip = ip_of_index blocked_base sites.fresh in
    Hw_sim.Internet.add_zone net name ip;
    Blocked (name, ip)
  end
  else if Hw_sim.Prng.float sites.rng < sites.hit_share then
    let name, ip = sites.popular.(Hw_sim.Prng.int sites.rng (Array.length sites.popular)) in
    Allowed (name, ip)
  else begin
    sites.fresh <- sites.fresh + 1;
    let name = Printf.sprintf "f%d.%s.allowed.example" sites.fresh sites.tag in
    let ip = ip_of_index allowed_base sites.fresh in
    Hw_sim.Internet.add_zone net name ip;
    Allowed (name, ip)
  end

(* First packets of permitted flows, by source port, until seen upstream. *)
let awaiting_first : (int, unit) Hashtbl.t = Hashtbl.create 256

(* Upstream oracle for flow traffic: permitted first packets arrive,
   nothing addressed to a blocked site and nothing from [forged] leaves. *)
let check_upstream ?forged frame =
  if H.u16 frame 12 = 0x0800 && String.length frame >= 38 then begin
    let src = Ip.of_int32 (String.get_int32_be frame 26) in
    let dst = Ip.of_int32 (String.get_int32_be frame 30) in
    if is_blocked_ip dst then fail ("frame to blocked site " ^ Ip.to_string dst ^ " left upstream");
    (match forged with
    | Some f when Ip.equal f src -> fail "frame from the pending device left upstream"
    | _ -> ());
    if Char.code frame.[23] = 17 && H.u16 frame 36 = data_port then
      Hashtbl.remove awaiting_first (H.u16 frame 34)
  end

type lanes = { mutable running : bool; mutable remaining : int (** flows left; <0 = unbounded *) }

let rec lane lanes sites host ~think =
  if lanes.running && lanes.remaining <> 0 then begin
    if lanes.remaining > 0 then lanes.remaining <- lanes.remaining - 1;
    let h = host.home.H.h in
    let net = Option.get host.home.H.net in
    let next () =
      EL.after h.H.dloop (Hw_sim.Prng.exponential sites.rng ~mean:think) (fun () ->
          lane lanes sites host ~think)
    in
    attempt ();
    (* settles once: by the DNS answer or by the 5 s timeout *)
    let settled = ref false in
    let settle () =
      let first = not !settled in
      settled := true;
      first
    in
    let site = pick_site sites net in
    EL.after h.H.dloop 5. (fun () ->
        if settle () then begin
          fail
            ("DNS query for "
            ^ (match site with Allowed (n, _) | Blocked (n, _) -> n)
            ^ " unanswered");
          next ()
        end);
    match site with
    | Allowed (name, ip) ->
        dns_query host name (fun resp ->
            if settle () then
              if
                not
                  (List.exists
                     (fun (rr : Dns_wire.rr) -> rr.Dns_wire.rdata = Dns_wire.A_data ip)
                     resp.Dns_wire.answers)
              then begin
                fail ("permitted name " ^ name ^ " not resolved");
                next ()
              end
              else
                with_arp host ip (fun () ->
                    let sport = fresh_port () in
                    Hashtbl.replace awaiting_first sport ();
                    udp_to host ~tag:H.c_rx_first ~dst_ip:ip ~src_port:sport "first";
                    EL.after h.H.dloop 0.25 (fun () ->
                        if Hashtbl.mem awaiting_first sport then begin
                          Hashtbl.remove awaiting_first sport;
                          fail ("permitted first packet to " ^ name ^ " never left upstream")
                        end);
                    for i = 1 to 2 do
                      EL.after h.H.dloop (0.01 *. float_of_int i) (fun () ->
                          udp_to host ~tag:H.c_rx_data ~dst_ip:ip ~src_port:sport "more")
                    done;
                    next ()))
    | Blocked (name, ip) ->
        dns_query host name (fun resp ->
            if settle () then begin
              if resp.Dns_wire.answers <> [] then fail ("blocked name " ^ name ^ " resolved");
              (* the app tries the address anyway: first packet, two retries *)
              with_arp host ip (fun () ->
                  let sport = fresh_port () in
                  udp_to host ~tag:H.c_rx_refused ~dst_ip:ip ~src_port:sport "first";
                  for i = 1 to 2 do
                    EL.after h.H.dloop (0.06 *. float_of_int i) (fun () ->
                        udp_to host ~tag:H.c_rx_data ~dst_ip:ip ~src_port:sport "retry")
                  done;
                  next ())
            end)
  end

(* ------------------------------------------------------------------ *)
(* Joins: devices that leave and rejoin                                 *)
(* ------------------------------------------------------------------ *)

(* Join latency: the DISCOVER call plus the REQUEST call that follows it. *)
let discover_self : (string, int) Hashtbl.t = Hashtbl.create 64

let note_dhcp_call (home : H.home) ~cls frame self =
  if cls = H.c_rx_dhcp && String.length frame > 42 then
    match Dhcp_wire.decode (String.sub frame 42 (String.length frame - 42)) with
    | Ok msg -> (
        let mac = Mac.to_string msg.Dhcp_wire.chaddr in
        match Dhcp_wire.find_message_type msg with
        | Some Dhcp_wire.Discover -> Hashtbl.replace discover_self mac self
        | Some Dhcp_wire.Request -> (
            match Hashtbl.find_opt discover_self mac with
            | Some d ->
                Hashtbl.remove discover_self mac;
                Vec.push home.H.h.H.sm.H.join (float_of_int (d + self))
            | None -> ())
        | _ -> ())
    | Error _ -> ()

type cycler = {
  mutable cycling : bool;
  mutable joins_left : int;  (** <0 = unbounded *)
  mutable gen : int;  (** bumped by each [start_cycling]: older chains end *)
}

(* Fresh binds per device, counted by its on_bound hook. *)
let binds : (string, int ref) Hashtbl.t = Hashtbl.create 64

let bind_count d =
  let name = Hw_sim.Device.name d in
  match Hashtbl.find_opt binds name with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.replace binds name r;
      Hw_sim.Device.on_bound d (fun _ -> incr r);
      r

(* Leave after an exponential online time, rejoin after an offline gap;
   every rejoin of a permitted device must bind within 70 s. *)
let cycle cyc (h : H.t) rng (d : Hw_sim.Device.t) ~online ~offline =
  let gen = cyc.gen in
  let count = bind_count d in
  let rec online_phase () =
    EL.after h.H.dloop (Hw_sim.Prng.exponential rng ~mean:online) (fun () ->
        if cyc.cycling && cyc.gen = gen && cyc.joins_left <> 0 then begin
          if cyc.joins_left > 0 then cyc.joins_left <- cyc.joins_left - 1;
          Hw_sim.Device.stop d;
          EL.after h.H.dloop (Hw_sim.Prng.exponential rng ~mean:offline) (fun () ->
              attempt ();
              let before = !count in
              Hw_sim.Device.start d;
              (* wireless frames can be lost: allow the client's DISCOVER
                 backoff (4, 8, 16, 32 s) to run its course *)
              EL.after h.H.dloop 70. (fun () ->
                  if !count = before then fail (Hw_sim.Device.name d ^ " did not rebind"));
              online_phase ())
        end)
  in
  online_phase ()

let start_cycling cyc h rng devices ~online ~offline =
  cyc.gen <- cyc.gen + 1;
  cyc.cycling <- true;
  List.iter (fun d -> cycle cyc h rng d ~online ~offline) devices

(* Egress oracle: no DHCP ACK may go to a MAC in [barred]. *)
let check_no_ack ~barred frame =
  if H.u16 frame 12 = 0x0800 && String.length frame > 42 && Char.code frame.[23] = 17
     && H.u16 frame 34 = 67
  then
    match Dhcp_wire.decode (String.sub frame 42 (String.length frame - 42)) with
    | Ok msg when Dhcp_wire.find_message_type msg = Some Dhcp_wire.Ack ->
        if barred msg.Dhcp_wire.chaddr then
          fail ("DHCP ACK to barred device " ^ Mac.to_string msg.Dhcp_wire.chaddr)
    | _ -> ()

(* ------------------------------------------------------------------ *)
(* Figure 1: per-device bandwidth SELECT over RPC                        *)
(* ------------------------------------------------------------------ *)

let fig1_statement = "SELECT src_ip, SUM(bytes) AS bytes FROM Flows [RANGE 10 SECONDS] GROUP BY src_ip"
let fig1_addr = "ui-bandwidth:9000"
let fig2_addr = "ui-artifact:9001"

(* The independent count: distinct src_ip in the window, read straight
   off the table ring rather than through the query engine. *)
let fig1_expected (home : H.home) =
  match Hw_hwdb.Database.table (R.db home.H.router) "Flows" with
  | None -> -1
  | Some tbl ->
      let now = H.now_r home.H.h in
      let seen = Hashtbl.create 16 in
      Hw_hwdb.Table.fold_window tbl (`Last_seconds (10., now)) ~init:() ~f:(fun () tu ->
          match tu.Hw_hwdb.Value.values.(1) with
          | Hw_hwdb.Value.Str s -> Hashtbl.replace seen s ()
          | _ -> ());
      Hashtbl.length seen

(* The router's RPC egress: check figure-1 replies against the
   independent count, count publishes for figure 2. *)
let rpc_out (home : H.home) ~to_ data =
  home.H.reply_bytes <- home.H.reply_bytes + String.length data;
  if String.equal to_ fig1_addr then begin
    match Rpc.decode data with
    | Ok (Rpc.Response_ok { result = Some rs; _ }) ->
        home.H.fig1_pending <- false;
        let expected = fig1_expected home in
        let got = List.length rs.Hw_hwdb.Query.rows in
        if got <> expected then
          fail (Printf.sprintf "figure-1 query returned %d rows, expected %d" got expected)
    | Ok (Rpc.Response_error { message; _ }) ->
        home.H.fig1_pending <- false;
        fail ("figure-1 query failed: " ^ message)
    | _ -> ()
  end
  else if String.equal to_ fig2_addr then
    match Rpc.decode data with
    | Ok (Rpc.Publish _) -> home.H.publishes <- home.H.publishes + 1
    | _ -> ()

let rpc_request (home : H.home) ~from statement ~sample =
  home.H.rpc_seq <- Int32.succ home.H.rpc_seq;
  let data = Rpc.encode (Rpc.Request { seq = home.H.rpc_seq; statement; ctx = None }) in
  let h = home.H.h in
  EL.at h.H.rloop (H.now_d h +. H.hop) (fun () ->
      let self =
        H.call h H.c_rpc ~items:1 (fun () -> R.rpc_datagram home.H.router ~from data)
      in
      if sample then Vec.push h.H.sm.H.query (float_of_int self))

let poll_fig1 (home : H.home) =
  if home.H.fig1_pending then fail "figure-1 query unanswered";
  attempt ();
  home.H.fig1_pending <- true;
  rpc_request home ~from:fig1_addr fig1_statement ~sample:true

let subscribe_fig2 home =
  List.iter
    (fun st -> rpc_request home ~from:fig2_addr st ~sample:false)
    [
      "SUBSCRIBE SELECT mac, MAX(retries) AS r, MAX(packets) AS p FROM Links [ROWS 64] GROUP BY \
       mac EVERY 1 SECONDS";
      "SUBSCRIBE SELECT mac, ip, action FROM Leases [RANGE 5 SECONDS] EVERY 1 SECONDS";
    ]

(* ------------------------------------------------------------------ *)
(* Figures 3 and 4: control-API permit/deny and the USB key              *)
(* ------------------------------------------------------------------ *)

type policy_target = {
  guest : Mac.t;  (** toggled through the control API *)
  mutable guest_denied : bool;
  kid : host;  (** governed by the USB key *)
  site : string;  (** the site the key unlocks *)
  mutable key_in : bool;
}

let key_fs =
  Hw_policy.Usb_key.render { Hw_policy.Usb_key.token = "homework-key"; rules = [] }

(* The policy: kids may always reach bbc.co.uk; the key unlocks facebook. *)
let install_kid_policy home ~kid_mac =
  define_group home "kids" [ kid_mac ];
  add_policy home
    {|{"id":"kids-base","group":"kids","services":["bbc-news"],"days":"all","window":"always"}|};
  add_policy home
    {|{"id":"kids-fun","group":"kids","services":["facebook"],"days":"all","window":"always","requires_token":"homework-key"}|}

let toggle_guest (home : H.home) pt =
  attempt ();
  let deny = not pt.guest_denied in
  let path =
    Printf.sprintf "/api/devices/%s/%s" (Mac.to_string pt.guest)
      (if deny then "deny" else "permit")
  in
  (* mark the guest denied before the call: an ACK emitted inside it is a
     violation *)
  if deny then pt.guest_denied <- true;
  let status = http home ~sample:true Http.POST path "" in
  if status <> 200 then fail (Printf.sprintf "control API %s -> %d" path status);
  if not deny then pt.guest_denied <- false

(* Insert or remove the key, then check the governed site's verdict with
   a DNS query from the kid's station: allowed = forwarded upstream or
   answered, blocked = NXDOMAIN. *)
let toggle_key (home : H.home) pt =
  attempt ();
  let h = home.H.h in
  let r = home.H.router in
  let inserting = not pt.key_in in
  let self =
    H.call h H.c_usb ~items:1 (fun () ->
        if inserting then begin
          match R.insert_usb r ~device:"sdb1" key_fs with
          | Ok _ -> ()
          | Error e -> fail ("USB key rejected: " ^ e)
        end
        else R.remove_usb r ~device:"sdb1")
  in
  Vec.push h.H.sm.H.policy (float_of_int self);
  pt.key_in <- inserting;
  let expect_allowed = inserting in
  EL.at h.H.dloop (H.now_r h +. H.hop) (fun () ->
      if Hw_sim.Device.dhcp_state (Option.get pt.kid.dev.H.device) = Hw_sim.Device.Bound then begin
        let verdict = ref None in
        let prev = home.H.egress in
        home.H.egress <-
          (fun ~port frame ->
            prev ~port frame;
            if port = R.upstream_port && H.u16 frame 12 = 0x0800 && String.length frame > 37
               && H.u16 frame 36 = 53
            then
              match Dns_wire.decode (String.sub frame 42 (String.length frame - 42)) with
              | Ok { Dns_wire.questions = { Dns_wire.qname; _ } :: _; is_response = false; _ }
                when String.equal (Dns_wire.normalize_name qname) pt.site ->
                  verdict := Some true
              | _ -> ());
        dns_query pt.kid pt.site (fun resp ->
            if !verdict = None then
              verdict := Some (resp.Dns_wire.answers <> []));
        EL.after h.H.dloop 0.5 (fun () ->
            home.H.egress <- prev;
            match !verdict with
            | Some allowed when allowed = expect_allowed -> ()
            | Some _ ->
                fail
                  (Printf.sprintf "USB key %s did not flip %s"
                     (if inserting then "insert" else "removal")
                     pt.site)
            | None -> fail "USB verdict probe unanswered")
      end)
