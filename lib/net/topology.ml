type node_id = int

type link_profile = {
  base_latency : Ksim.Time.t;
  jitter : Ksim.Time.t;
  bandwidth_bps : float;
  loss : float;
}

let lan_default =
  {
    base_latency = Ksim.Time.us 150;
    jitter = Ksim.Time.us 50;
    bandwidth_bps = 125_000_000.0;
    loss = 0.0;
  }

let wan_default =
  {
    base_latency = Ksim.Time.ms 30;
    jitter = Ksim.Time.ms 5;
    bandwidth_bps = 1_250_000.0;
    loss = 0.0;
  }

type t = {
  clusters : int array;
  mutable lan : link_profile;
  mutable wan : link_profile;
}

let create ~clusters =
  if Array.length clusters = 0 then invalid_arg "Topology.create: no nodes";
  { clusters = Array.copy clusters; lan = lan_default; wan = wan_default }

let symmetric ~nodes_per_cluster ~clusters =
  if nodes_per_cluster <= 0 || clusters <= 0 then
    invalid_arg "Topology.symmetric: sizes must be positive";
  create
    ~clusters:
      (Array.init (nodes_per_cluster * clusters) (fun i -> i / nodes_per_cluster))

let node_count t = Array.length t.clusters
let nodes t = List.init (node_count t) Fun.id

let cluster_of t n =
  if n < 0 || n >= node_count t then invalid_arg "Topology.cluster_of: bad node";
  t.clusters.(n)

let cluster_members t c =
  List.filter (fun n -> t.clusters.(n) = c) (nodes t)

let cluster_count t =
  Array.fold_left (fun acc c -> max acc (c + 1)) 0 t.clusters

let same_cluster t a b = cluster_of t a = cluster_of t b
let set_lan t p = t.lan <- p
let set_wan t p = t.wan <- p
let profile t src dst = if same_cluster t src dst then t.lan else t.wan
