package cluster

import (
	"fmt"
	"sort"
	"strings"
)

// Cluster is a set of nodes, indexed by GPU model for heterogeneous
// pools.
type Cluster struct {
	all     nodeSet
	byModel map[string]*nodeSet
	byID    map[int]*Node

	// version counts occupancy mutations across all member nodes
	// (bumped by Node.bump and AddNode); the aggregate cache below is
	// valid while it holds still. It starts at 1 so the zero
	// aggVersion always reads as stale.
	version uint64

	// upCapacity is the total card count over non-down nodes,
	// maintained incrementally. Capacities are integers, so the
	// running total is bit-identical to the scan it replaces no
	// matter the order of updates.
	upCapacity int

	// Whole-cluster usage aggregates, recomputed lazily — in exactly
	// the node-order fold the eager scans used, so the cached floats
	// are bit-identical to recomputation — when version moves.
	aggVersion              uint64
	aggUsed, aggHP, aggSpot float64
}

// nodeSet is one NodesOfModel slice, in ascending ID order, with its
// pristine bitset: bit i (word i/64, bit i%64) is set exactly when
// nodes[i] is pristine (see Node.pristine). Member nodes keep their
// bits current on every mutation.
type nodeSet struct {
	nodes    []*Node
	pristine []uint64
}

// add appends n with its bit clear and returns its position.
func (s *nodeSet) add(n *Node) int32 {
	i := len(s.nodes)
	s.nodes = append(s.nodes, n)
	if i&63 == 0 {
		s.pristine = append(s.pristine, 0)
	}
	return int32(i)
}

// pristineAt reports bit i.
func (s *nodeSet) pristineAt(i int) bool { return s.pristine[i>>6]&(1<<(i&63)) != 0 }

// flip toggles bit i.
func (s *nodeSet) flip(i int) { s.pristine[i>>6] ^= 1 << (i & 63) }

// New builds an empty cluster.
func New() *Cluster {
	return &Cluster{byModel: make(map[string]*nodeSet), byID: make(map[int]*Node), version: 1}
}

// NewHomogeneous builds a cluster of n nodes with gpusPerNode GPUs of
// a single model, matching the paper's simulation setup (287 8-card
// A100 nodes).
func NewHomogeneous(model string, n, gpusPerNode int) *Cluster {
	c := New()
	for i := 0; i < n; i++ {
		c.AddNode(NewNode(i, model, gpusPerNode))
	}
	return c
}

// Pool describes one homogeneous slice of a heterogeneous cluster.
type Pool struct {
	Model       string
	Nodes       int
	GPUsPerNode int
	// Tier is the capacity tier the pool's nodes are billed under
	// ("spot", "on-demand", "reserved"). Empty means owned/reserved
	// capacity; autoscalers stamp it on provisioned pools so cost
	// collectors can attribute spend per tier.
	Tier string
}

// NewHeterogeneous builds a multi-model cluster from pools, numbering
// nodes sequentially.
func NewHeterogeneous(pools []Pool) *Cluster {
	c := New()
	id := 0
	for _, p := range pools {
		for i := 0; i < p.Nodes; i++ {
			c.AddNode(NewNode(id, p.Model, p.GPUsPerNode))
			id++
		}
	}
	return c
}

// AddNode registers a node. Node IDs must ascend in insertion order,
// which keeps every NodesOfModel slice in ID order; AddNode panics on
// an ID not above every ID already in the cluster.
func (c *Cluster) AddNode(n *Node) {
	if k := len(c.all.nodes); k > 0 && n.ID <= c.all.nodes[k-1].ID {
		panic(fmt.Sprintf("cluster: AddNode(%d) after node %d: IDs must ascend", n.ID, c.all.nodes[k-1].ID))
	}
	ms := c.byModel[n.Model]
	if ms == nil {
		ms = &nodeSet{}
		c.byModel[n.Model] = ms
	}
	n.owner = c
	n.allIdx, n.modelIdx = c.all.add(n), ms.add(n)
	n.syncPristine()
	c.byID[n.ID] = n
	if !n.down {
		c.upCapacity += n.Capacity()
	}
	c.version++
}

// AddPool grows the cluster by a pool of fresh nodes, numbering them
// after the current maximum ID, and returns the new nodes. It is the
// mutation behind scale-out scenario actions.
func (c *Cluster) AddPool(p Pool) []*Node {
	id := c.MaxNodeID() + 1
	added := make([]*Node, 0, p.Nodes)
	for i := 0; i < p.Nodes; i++ {
		n := NewNode(id, p.Model, p.GPUsPerNode)
		n.Tier = p.Tier
		c.AddNode(n)
		added = append(added, n)
		id++
	}
	return added
}

// Node returns the node with the given ID, or nil.
func (c *Cluster) Node(id int) *Node { return c.byID[id] }

// MaxNodeID returns the highest node ID, or -1 for an empty cluster.
func (c *Cluster) MaxNodeID() int {
	if len(c.all.nodes) == 0 {
		return -1
	}
	// AddNode keeps IDs ascending, so the last node holds the maximum.
	return c.all.nodes[len(c.all.nodes)-1].ID
}

// DomainName returns the canonical failure-domain name of rack r in
// zone z — the single source of truth for the names AssignDomains
// stamps and scenario generators target.
func DomainName(zone, rack int) string {
	return fmt.Sprintf("zone-%d/rack-%d", zone, rack)
}

// AssignDomains lays a zones × racksPerZone failure-domain topology
// over the cluster: nodes are split into contiguous ID-ordered blocks,
// one block per rack, and stamped with DomainName domains.
// Correlated-failure scenario actions target these domains. Node
// counts that do not divide evenly leave the last rack(s) short,
// never empty; zones or racksPerZone < 1 are treated as 1.
func (c *Cluster) AssignDomains(zones, racksPerZone int) {
	if zones < 1 {
		zones = 1
	}
	if racksPerZone < 1 {
		racksPerZone = 1
	}
	racks := zones * racksPerZone
	n := len(c.all.nodes)
	for i, node := range c.all.nodes {
		// Rack r gets nodes [r*n/racks, (r+1)*n/racks): contiguous,
		// balanced to within one node, no empty racks while n ≥ racks.
		r := i * racks / n
		node.Domain = DomainName(r/racksPerZone, r%racksPerZone)
	}
}

// Domains returns the distinct non-empty failure domains, sorted.
func (c *Cluster) Domains() []string {
	seen := make(map[string]bool)
	for _, n := range c.all.nodes {
		if n.Domain != "" {
			seen[n.Domain] = true
		}
	}
	out := make([]string, 0, len(seen))
	for d := range seen {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// NodesInDomain returns the nodes whose Domain equals domain or lives
// under it (domain "zone-0" matches "zone-0/rack-1"), in ID order. An
// empty domain matches nothing.
func (c *Cluster) NodesInDomain(domain string) []*Node {
	if domain == "" {
		return nil
	}
	var out []*Node
	for _, n := range c.all.nodes {
		if n.Domain == domain || strings.HasPrefix(n.Domain, domain+"/") {
			out = append(out, n)
		}
	}
	return out
}

// SiblingDomains returns the domains that share domain's parent (the
// path up to the last '/'), sorted and excluding domain itself. A
// top-level domain's siblings are all other top-level prefixes. It is
// the blast-radius set cascading failures spread into.
func (c *Cluster) SiblingDomains(domain string) []string {
	parent := ""
	if i := strings.LastIndex(domain, "/"); i >= 0 {
		parent = domain[:i+1]
	}
	seen := make(map[string]bool)
	for _, d := range c.Domains() {
		if d == domain || !strings.HasPrefix(d, parent) {
			continue
		}
		// For top-level domains compare only the first path element
		// so "zone-0/rack-1" is not a sibling of "zone-1".
		if parent == "" {
			if j := strings.Index(d, "/"); j >= 0 {
				d = d[:j]
			}
			if d == domain {
				continue
			}
		}
		seen[d] = true
	}
	out := make([]string, 0, len(seen))
	for d := range seen {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// UpNodes counts nodes that are not down.
func (c *Cluster) UpNodes() int {
	up := 0
	for _, n := range c.all.nodes {
		if !n.Down() {
			up++
		}
	}
	return up
}

// Nodes returns all nodes in ID order.
func (c *Cluster) Nodes() []*Node { return c.all.nodes }

// NodesOfModel returns nodes of the given model, or all nodes when
// model is empty.
func (c *Cluster) NodesOfModel(model string) []*Node {
	return c.nodeSet(model).nodes
}

// PristineOfModel returns the pristine bitset of NodesOfModel(model):
// bit i of word i/64 is set exactly when node i of that slice is
// schedulable, holds no allocation and has never recorded an
// eviction. Such nodes are interchangeable to an occupancy- and
// eviction-driven scorer; only their IDs differ. The words belong to
// the cluster and track its mutations; callers must not modify them.
func (c *Cluster) PristineOfModel(model string) []uint64 {
	return c.nodeSet(model).pristine
}

// nodeSet returns the slice for model ("" = all nodes); an unknown
// model yields an empty set.
func (c *Cluster) nodeSet(model string) *nodeSet {
	if model == "" {
		return &c.all
	}
	if ms := c.byModel[model]; ms != nil {
		return ms
	}
	return &noNodes
}

// noNodes is the shared empty set for unknown models; nothing adds
// to it.
var noNodes nodeSet

// Models lists the distinct GPU models, sorted.
func (c *Cluster) Models() []string {
	out := make([]string, 0, len(c.byModel))
	for m := range c.byModel {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// refreshAgg recomputes the whole-cluster usage aggregates if any
// node changed since the last computation. The three sums fold over
// nodes in slice order with the same per-node expressions the
// per-call scans used — used accumulates hpUsed+spotUsed node by
// node, not aggHP+aggSpot — so caching never shifts a single ULP.
func (c *Cluster) refreshAgg() {
	if c.aggVersion == c.version {
		return
	}
	used, hp, spot := 0.0, 0.0, 0.0
	for _, n := range c.all.nodes {
		if n.down {
			continue
		}
		used += n.hpUsed + n.spotUsed
		hp += n.hpUsed
		spot += n.spotUsed
	}
	c.aggUsed, c.aggHP, c.aggSpot = used, hp, spot
	c.aggVersion = c.version
}

// TotalGPUs returns the cluster capacity C, optionally restricted to
// one model. Down nodes contribute nothing.
func (c *Cluster) TotalGPUs(model string) float64 {
	if model == "" {
		// Integer card counts sum exactly in float64, so the
		// incremental total matches the scan bit-for-bit.
		return float64(c.upCapacity)
	}
	total := 0.0
	for _, n := range c.NodesOfModel(model) {
		if n.Down() {
			continue
		}
		total += float64(n.Capacity())
	}
	return total
}

// UsedGPUs returns currently allocated capacity, optionally
// restricted to one model.
func (c *Cluster) UsedGPUs(model string) float64 {
	if model == "" {
		c.refreshAgg()
		return c.aggUsed
	}
	u := 0.0
	for _, n := range c.NodesOfModel(model) {
		if n.Down() {
			continue
		}
		u += n.UsedGPUs()
	}
	return u
}

// IdleGPUs returns S0: idle capacity, optionally restricted to one
// model.
func (c *Cluster) IdleGPUs(model string) float64 {
	return c.TotalGPUs(model) - c.UsedGPUs(model)
}

// SpotGPUs returns capacity held by spot tasks.
func (c *Cluster) SpotGPUs(model string) float64 {
	if model == "" {
		c.refreshAgg()
		return c.aggSpot
	}
	u := 0.0
	for _, n := range c.NodesOfModel(model) {
		if n.Down() {
			continue
		}
		u += n.SpotGPUs()
	}
	return u
}

// HPGPUs returns capacity held by HP tasks.
func (c *Cluster) HPGPUs(model string) float64 {
	if model == "" {
		c.refreshAgg()
		return c.aggHP
	}
	u := 0.0
	for _, n := range c.NodesOfModel(model) {
		if n.Down() {
			continue
		}
		u += n.HPGPUs()
	}
	return u
}

// AllocationRate is used/total in [0,1], the paper's headline
// efficiency metric.
func (c *Cluster) AllocationRate(model string) float64 {
	total := c.TotalGPUs(model)
	if total == 0 {
		return 0
	}
	return c.UsedGPUs(model) / total
}

// Fragmentation sums the per-node fragmentation measure.
func (c *Cluster) Fragmentation() float64 {
	f := 0.0
	for _, n := range c.all.nodes {
		f += n.Fragmentation()
	}
	return f
}

// String implements fmt.Stringer.
func (c *Cluster) String() string {
	return fmt.Sprintf("cluster (%d nodes, %.0f GPUs, %.1f%% allocated)",
		len(c.all.nodes), c.TotalGPUs(""), 100*c.AllocationRate(""))
}
