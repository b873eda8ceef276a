// Package discovery implements AISLE's self-discovering agent network
// (milestone M12): a DNS-SD-style federated service registry in which every
// site runs a registry, services register records with TTL-bounded leases,
// and registries converge through periodic anti-entropy gossip over the bus.
// Capability descriptors on each record support the negotiation step the
// paper calls for — agents pick instruments by required capability rather
// than by hard-coded address.
//
// The design tolerates the failures the roadmap worries about: a partition
// stalls convergence only for the separated groups, leases expire when an
// owner dies, and the directory re-converges after topology changes without
// central coordination.
//
// Records are copy-on-write: once stored, a *Record's content never
// mutates, so gossip snapshots and merges share pointers instead of deep
// cloning. Mutable lease state (expiry, last update) lives in a per-registry
// entry alongside the shared record; version bumps (Renew, Deregister)
// replace the record pointer.
//
// Gossip is publish-once: a registry's record set changes only during
// warm-up and around faults, so the discovery.sync payload is a pointer to
// an immutable snapshot built once per change and handed to every peer and
// every reply until the next change. The one invariant is that a published
// snapshot is never written again — it may ride the bus (retries, slow
// links) long after the registry has moved on, so a change builds a new
// snapshot with a new slice. Because snapshots are immutable, a receiver
// recognises one it has already merged by pointer: when neither side has
// changed since, the merge only re-stamps the leases the last walk
// re-stamped.
package discovery

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"github.com/aisle-sim/aisle/internal/bus"
	"github.com/aisle-sim/aisle/internal/netsim"
	"github.com/aisle-sim/aisle/internal/sim"
	"github.com/aisle-sim/aisle/internal/telemetry"
)

// Record is one advertised service instance. Instance names are globally
// unique ("ornl/xrd-1"); Type groups interchangeable services
// ("_xrd._aisle"). Capabilities hold numeric capability levels used in
// negotiation; Text holds descriptive metadata (vendor, model, units).
//
// Stored records are immutable and shared across registries; UpdatedAt and
// ExpiresAt are filled in on copy-out from the owning registry's lease
// entry.
type Record struct {
	Instance     string
	Type         string
	Addr         bus.Address
	Capabilities map[string]float64
	Text         map[string]string

	// Lease management.
	TTL       sim.Time
	Version   uint64
	Deleted   bool
	Origin    netsim.SiteID
	UpdatedAt sim.Time // local registry clock when last merged
	ExpiresAt sim.Time
}

func (r *Record) clone() *Record {
	c := *r
	c.Capabilities = make(map[string]float64, len(r.Capabilities))
	for k, v := range r.Capabilities {
		c.Capabilities[k] = v
	}
	c.Text = make(map[string]string, len(r.Text))
	for k, v := range r.Text {
		c.Text[k] = v
	}
	return &c
}

// entry pairs a shared immutable record with this registry's lease state.
type entry struct {
	rec       *Record
	updatedAt sim.Time
	expiresAt sim.Time
}

// copyOut materializes a caller-owned Record with the local lease view.
func (e *entry) copyOut() Record {
	c := *e.rec.clone()
	c.UpdatedAt = e.updatedAt
	c.ExpiresAt = e.expiresAt
	return c
}

// Registry is one site's view of the federated directory.
type Registry struct {
	site    netsim.SiteID
	dir     *Directory
	records map[string]*entry

	// Read-path acceleration: routing browses the directory on every
	// scheduler dispatch attempt, so lookups must not rescan and re-sort
	// the record map. typeIdx caches a sorted per-type record index,
	// rebuilt lazily when gen (bumped on any membership or type change)
	// moves past the cached generation; nextExpiry is a conservative
	// lower bound on the earliest lease expiry so expire is O(1) until a
	// lease can actually lapse.
	gen        uint64
	typeIdx    map[string]*typeIndex
	nextExpiry sim.Time

	// Gossip state, all made at first use. changes counts every creation,
	// replacement or removal of an entry and every swap of an entry's rec
	// pointer — a superset of gen's bumps (Renew moves changes, not gen) —
	// so "changes has not moved" means the records map, its entries and
	// their rec pointers are exactly what they were.
	changes uint64
	pub     *snapshot // published at pubAt; rebuilt when changes moves on
	pubAt   uint64
	peers   map[netsim.SiteID]*peerMemo
	onReply func(any, error)
}

// snapshot is the discovery.sync payload: every record (tombstones
// included) a registry held when it was published. Immutable from then on.
type snapshot struct {
	from netsim.SiteID
	recs []*Record
}

// peerMemo is what a registry remembers about one peer's gossip: the last
// snapshot whose merge walk changed nothing, the registry's own change
// counter at that walk, and the entries the walk re-leased.
type peerMemo struct {
	seen   *snapshot
	seenAt uint64
	leased []*entry
}

// typeIndex is the cached Browse result set for one service type.
type typeIndex struct {
	gen  uint64
	recs []*Record // sorted by instance name; includes tombstones
}

// noExpiry marks an empty registry's expiry bound.
const noExpiry = sim.Time(math.MaxInt64)

// touch invalidates the read caches after a membership or type change and
// folds a record's lease into the expiry bound.
func (r *Registry) touch(expires sim.Time) {
	r.gen++
	r.changes++
	if expires < r.nextExpiry {
		r.nextExpiry = expires
	}
}

// Directory wires the per-site registries together with gossip.
type Directory struct {
	fabric     *bus.Fabric
	eng        *sim.Engine
	metrics    *telemetry.Registry
	registries map[netsim.SiteID]*Registry
	sites      []netsim.SiteID

	// GossipInterval controls anti-entropy frequency. Default 2s.
	GossipInterval sim.Time
	// DefaultTTL applies to records registered without one. Default 30s.
	DefaultTTL sim.Time

	// Per-RPC counter handles, each resolved when it first counts.
	gossipRounds, gossipFailures, mergedRecords *telemetry.Counter

	stops []func()
}

// counter resolves a hot-path handle on first use, so a metrics dump lists
// the counter from the moment it first counted and not before.
func (d *Directory) counter(h **telemetry.Counter, name string) *telemetry.Counter {
	if *h == nil {
		*h = d.metrics.Counter(name)
	}
	return *h
}

// NewDirectory creates registries for the given sites and starts gossip.
func NewDirectory(fabric *bus.Fabric, sites []netsim.SiteID) *Directory {
	d := &Directory{
		fabric:         fabric,
		eng:            fabric.Engine(),
		metrics:        fabric.Metrics(),
		registries:     make(map[netsim.SiteID]*Registry),
		sites:          append([]netsim.SiteID(nil), sites...),
		GossipInterval: 2 * sim.Second,
		DefaultTTL:     30 * sim.Second,
	}
	for _, s := range sites {
		d.registries[s] = &Registry{site: s, dir: d, records: make(map[string]*entry)}
	}
	for _, s := range sites {
		s := s
		fabric.Broker(s).RegisterFunc("discovery.sync", 0, func(env *bus.Envelope) (any, error) {
			return d.registries[s].handleSync(env.Payload.(*snapshot)), nil
		})
	}
	return d
}

// Metrics exposes discovery telemetry: the fabric's registry, which
// discovery counts into.
func (d *Directory) Metrics() *telemetry.Registry { return d.metrics }

// Registry returns the registry hosted at site.
func (d *Directory) Registry(site netsim.SiteID) *Registry { return d.registries[site] }

// Start launches the gossip tickers. Call once after topology is built.
func (d *Directory) Start() {
	for _, s := range d.sites {
		reg := d.registries[s]
		stop := d.eng.Ticker(d.GossipInterval, func(int) { reg.gossipRound() })
		d.stops = append(d.stops, stop)
	}
}

// Stop cancels gossip (ends the simulation cleanly).
func (d *Directory) Stop() {
	for _, s := range d.stops {
		s()
	}
	d.stops = nil
}

// Register advertises a record at its origin site's registry. The caller's
// record is copied; subsequent mutations have no effect. Registration bumps
// the version so gossip propagates the update.
func (r *Registry) Register(rec Record) {
	if rec.TTL <= 0 {
		rec.TTL = r.dir.DefaultTTL
	}
	rec.Origin = r.site
	existing := r.records[rec.Instance]
	if existing != nil {
		rec.Version = existing.rec.Version + 1
	} else {
		rec.Version = 1
	}
	now := r.dir.eng.Now()
	rec.UpdatedAt = now
	rec.ExpiresAt = now + rec.TTL
	r.records[rec.Instance] = &entry{
		rec:       rec.clone(), // detach from the caller's maps
		updatedAt: now,
		expiresAt: now + rec.TTL,
	}
	r.gen++
	r.changes++
	r.dir.metrics.Counter("discovery.registrations").Inc()
}

// Renew extends the lease on an instance owned by this registry, bumping
// its version so remote registries learn the new expiry. It reports whether
// the instance was found and owned here.
func (r *Registry) Renew(instance string) bool {
	e, ok := r.records[instance]
	if !ok || e.rec.Origin != r.site || e.rec.Deleted {
		return false
	}
	// Copy-on-write: snapshots in flight share the old record.
	next := *e.rec
	next.Version++
	e.rec = &next
	r.changes++
	e.updatedAt = r.dir.eng.Now()
	e.expiresAt = e.updatedAt + next.TTL
	return true
}

// Deregister tombstones an instance owned by this registry.
func (r *Registry) Deregister(instance string) bool {
	e, ok := r.records[instance]
	if !ok || e.rec.Origin != r.site {
		return false
	}
	next := *e.rec
	next.Deleted = true
	next.Version++
	e.rec = &next
	e.updatedAt = r.dir.eng.Now()
	// Tombstones linger one TTL so gossip can spread them.
	e.expiresAt = e.updatedAt + next.TTL
	r.touch(e.expiresAt)
	return true
}

// expire drops records whose lease lapsed. Tombstones and foreign records
// both expire; owners keep their live records fresh via Renew. The scan is
// skipped entirely while the clock sits below the earliest possible expiry,
// so steady-state reads pay one comparison.
func (r *Registry) expire() {
	now := r.dir.eng.Now()
	if now < r.nextExpiry {
		return
	}
	next := noExpiry
	removed := 0
	for name, e := range r.records {
		if now >= e.expiresAt && !(e.rec.Origin == r.site && !e.rec.Deleted) {
			delete(r.records, name)
			removed++
			r.dir.metrics.Counter("discovery.expirations").Inc()
			continue
		}
		if e.expiresAt < next && !(e.rec.Origin == r.site && !e.rec.Deleted) {
			next = e.expiresAt
		}
	}
	r.nextExpiry = next
	if removed > 0 {
		r.gen++
		r.changes++
	}
}

// typeIndexFor returns the cached sorted record set for a type, rebuilding
// it when the registry changed since it was cached.
func (r *Registry) typeIndexFor(serviceType string) *typeIndex {
	if r.typeIdx == nil {
		r.typeIdx = make(map[string]*typeIndex)
	}
	idx := r.typeIdx[serviceType]
	if idx != nil && idx.gen == r.gen {
		return idx
	}
	if idx == nil {
		idx = &typeIndex{}
		r.typeIdx[serviceType] = idx
	}
	idx.recs = idx.recs[:0]
	for _, e := range r.records {
		if e.rec.Type == serviceType {
			idx.recs = append(idx.recs, e.rec)
		}
	}
	sort.Slice(idx.recs, func(i, j int) bool { return idx.recs[i].Instance < idx.recs[j].Instance })
	idx.gen = r.gen
	return idx
}

// BrowseFunc visits the live records of the given type in instance-name
// order, without copying, until fn returns false. The records belong to
// the registry: callers must not mutate or retain them across simulation
// events. This is the allocation-free read path the federation scheduler
// routes through on every dispatch attempt; Browse is the copying
// convenience wrapper.
func (r *Registry) BrowseFunc(serviceType string, fn func(*Record) bool) {
	r.expire()
	for _, rec := range r.typeIndexFor(serviceType).recs {
		if rec.Deleted {
			continue
		}
		if !fn(rec) {
			return
		}
	}
}

// HasType reports whether any live record of the type is visible, without
// allocating.
func (r *Registry) HasType(serviceType string) bool {
	found := false
	r.BrowseFunc(serviceType, func(*Record) bool {
		found = true
		return false
	})
	return found
}

// Browse lists live records of the given type, sorted by instance name.
func (r *Registry) Browse(serviceType string) []Record {
	r.expire()
	var out []Record
	for _, rec := range r.typeIndexFor(serviceType).recs {
		if rec.Deleted {
			continue
		}
		if e := r.records[rec.Instance]; e != nil {
			out = append(out, e.copyOut())
		}
	}
	return out
}

// Resolve fetches a single instance by name.
func (r *Registry) Resolve(instance string) (Record, bool) {
	r.expire()
	e, ok := r.records[instance]
	if !ok || e.rec.Deleted {
		return Record{}, false
	}
	return e.copyOut(), true
}

// snapshot returns the published export of all records (including
// tombstones) for gossip, building it only if the record set changed since
// the last one was published. A published snapshot is never written again:
// it rides the bus as a message payload with an unbounded delivery horizon
// (retries, slow links) and peers recognise it by pointer, so a rebuild
// allocates a new snapshot and a new slice rather than reusing the old.
func (r *Registry) snapshot() *snapshot {
	if r.pub == nil || r.pubAt != r.changes {
		recs := make([]*Record, 0, len(r.records))
		for _, e := range r.records {
			recs = append(recs, e.rec)
		}
		r.pub, r.pubAt = &snapshot{from: r.site, recs: recs}, r.changes
	}
	return r.pub
}

// peer returns the gossip memo for a peer site.
func (r *Registry) peer(site netsim.SiteID) *peerMemo {
	p := r.peers[site]
	if p == nil {
		if r.peers == nil {
			r.peers = make(map[netsim.SiteID]*peerMemo)
		}
		p = &peerMemo{}
		r.peers[site] = p
	}
	return p
}

// merge folds remote records in, keeping the higher (origin, version) wins.
// Hearing an unchanged record again — live or tombstone — refreshes its
// lease, so steady gossip keeps records alive without explicit renewal
// traffic. Accepted records are stored by pointer — content is immutable
// federation-wide, so no copy is needed; only the local lease entry is new.
//
// The walk is the only place a record is compared or an entry created. When
// the same snapshot arrives again and this registry has not changed since a
// walk of it that changed nothing, every record would take the same branch,
// so the leases that walk re-stamped are re-stamped without walking.
func (r *Registry) merge(in *snapshot) int {
	now := r.dir.eng.Now()
	p := r.peer(in.from)
	if p.seen == in && p.seenAt == r.changes {
		for _, e := range p.leased {
			e.expiresAt = now + e.rec.TTL
		}
		return 0
	}
	if cap(p.leased) < len(in.recs) {
		p.leased = make([]*entry, 0, len(in.recs))
	}
	p.seen, p.leased = nil, p.leased[:0]
	changed := 0
	for _, rec := range in.recs {
		cur, ok := r.records[rec.Instance]
		if ok && cur.rec.Version > rec.Version {
			continue
		}
		if ok && cur.rec.Version == rec.Version {
			// Foreign lease clock restarts on every fresh sighting.
			cur.expiresAt = now + cur.rec.TTL
			p.leased = append(p.leased, cur)
			continue
		}
		expires := now + rec.TTL
		r.records[rec.Instance] = &entry{rec: rec, updatedAt: now, expiresAt: expires}
		r.touch(expires)
		changed++
	}
	if changed > 0 {
		r.dir.counter(&r.dir.mergedRecords, "discovery.merged_records").Add(int64(changed))
		return changed
	}
	p.seen, p.seenAt = in, r.changes
	return 0
}

// handleSync is the pull-push RPC body: merge the caller's snapshot and
// return ours.
func (r *Registry) handleSync(in *snapshot) *snapshot {
	r.expire()
	r.merge(in)
	return r.snapshot()
}

// syncReply completes one gossip call: count the failure or merge the
// peer's snapshot.
func (r *Registry) syncReply(result any, err error) {
	if err != nil {
		r.dir.counter(&r.dir.gossipFailures, "discovery.gossip_failures").Inc()
		return
	}
	r.merge(result.(*snapshot))
}

// gossipRound pushes this registry's snapshot to every peer and merges each
// reply (push-pull anti-entropy). Unreachable peers are skipped silently;
// convergence resumes when links heal.
func (r *Registry) gossipRound() {
	r.expire()
	snap := r.snapshot()
	if r.onReply == nil {
		r.onReply = r.syncReply
	}
	d := r.dir
	for _, peer := range d.sites {
		if peer == r.site {
			continue
		}
		d.counter(&d.gossipRounds, "discovery.gossip_rounds").Inc()
		d.fabric.Call(bus.CallOpts{
			From:    bus.Address{Site: r.site, Name: "discovery"},
			To:      bus.Address{Site: peer, Name: "discovery.sync"},
			Method:  "discovery.sync",
			Payload: snap,
			Timeout: d.GossipInterval,
		}, r.onReply)
	}
}

// Converged reports whether every registry holds an identical set of live
// records (instance -> version).
func (d *Directory) Converged() bool {
	var ref map[string]uint64
	for _, s := range d.sites {
		reg := d.registries[s]
		reg.expire()
		view := make(map[string]uint64)
		for name, e := range reg.records {
			if !e.rec.Deleted {
				view[name] = e.rec.Version
			}
		}
		if ref == nil {
			ref = view
			continue
		}
		if len(ref) != len(view) {
			return false
		}
		for k, v := range ref {
			if view[k] != v {
				return false
			}
		}
	}
	return true
}

// Requirement describes what a consumer needs from a service during
// capability negotiation.
type Requirement struct {
	Type    string
	MinCaps map[string]float64 // each capability must be >= the floor
	Prefer  string             // capability to maximize among qualifiers
}

// Negotiate selects the best qualifying instance visible from this
// registry. It reports false when nothing qualifies. Only the winning
// record is copied, so negotiation on the campaign hot path stays cheap.
func (r *Registry) Negotiate(req Requirement) (Record, bool) {
	var best *Record
	bestScore := 0.0
	r.BrowseFunc(req.Type, func(c *Record) bool {
		for cap, floor := range req.MinCaps {
			if c.Capabilities[cap] < floor {
				return true
			}
		}
		score := 1.0
		if req.Prefer != "" {
			score = c.Capabilities[req.Prefer]
		}
		if best == nil || score > bestScore {
			best, bestScore = c, score
		}
		return true
	})
	if best == nil {
		return Record{}, false
	}
	r.dir.metrics.Counter("discovery.negotiations").Inc()
	if e := r.records[best.Instance]; e != nil {
		return e.copyOut(), true
	}
	return *best.clone(), true
}

// String renders a record compactly for logs.
func (r Record) String() string {
	var caps []string
	for k, v := range r.Capabilities {
		caps = append(caps, fmt.Sprintf("%s=%g", k, v))
	}
	sort.Strings(caps)
	return fmt.Sprintf("%s (%s) @%s [%s]", r.Instance, r.Type, r.Addr, strings.Join(caps, " "))
}
