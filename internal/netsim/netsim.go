// Package netsim models the multi-institutional wide-area network that
// AISLE agents communicate over: sites (institutions) joined by links with
// propagation latency, serialization bandwidth, jitter, and loss; per-site
// firewall policy; and fault injection (link failures, partitions).
//
// The model is intentionally at message granularity, not packet granularity:
// the paper's claims (M10-M12) concern protocol behaviour — retries, failover,
// discovery convergence — under WAN conditions, which message-level latency
// and loss reproduce. Each link serializes transfers FIFO, so sustained load
// produces realistic queueing delay.
package netsim

import (
	"errors"
	"fmt"
	"sort"

	"github.com/aisle-sim/aisle/internal/prof"
	"github.com/aisle-sim/aisle/internal/rng"
	"github.com/aisle-sim/aisle/internal/sim"
	"github.com/aisle-sim/aisle/internal/telemetry"
	"github.com/aisle-sim/aisle/internal/trace"
)

// SiteID names an institution in the federation.
type SiteID string

// Errors reported by Send.
var (
	ErrUnknownSite = errors.New("netsim: unknown site")
	ErrNoRoute     = errors.New("netsim: no route between sites")
	ErrLinkDown    = errors.New("netsim: link down")
	ErrFirewall    = errors.New("netsim: blocked by firewall")
)

// Link describes the connection between two sites. Links are symmetric:
// the same parameters apply in both directions, but each direction has its
// own serialization queue.
type Link struct {
	Latency   sim.Time // one-way propagation delay
	Jitter    sim.Time // stddev of normal jitter added to latency
	Bandwidth float64  // bytes per second; <=0 means infinite
	Loss      float64  // independent message loss probability [0,1)

	up bool
	// busyUntil tracks FIFO serialization per direction, keyed 0/1 by
	// direction (a->b / b->a).
	busyUntil [2]sim.Time
	// downErr caches the refusal returned while the link is down, per
	// direction: a fault window refuses every send that crosses it. It is
	// made at the first refusal, so a link that never fails stays the size
	// it was.
	downErr *[2]error
}

// Up reports whether the link is currently passing traffic.
func (l *Link) Up() bool { return l.up }

// Rule is a firewall ingress rule: traffic from From for the named service
// is admitted. Empty From or Service acts as a wildcard.
type Rule struct {
	From    SiteID
	Service string
}

// Firewall is a default-deny ingress policy for one site.
type Firewall struct {
	allowAll bool
	rules    []Rule
}

// AllowAll opens the firewall entirely (used for trusted testbeds).
func (f *Firewall) AllowAll() { f.allowAll = true }

// Allow appends an ingress rule.
func (f *Firewall) Allow(r Rule) { f.rules = append(f.rules, r) }

// Admits reports whether a message from the given site for the given
// service passes the policy.
func (f *Firewall) Admits(from SiteID, service string) bool {
	if f == nil || f.allowAll {
		return true
	}
	for _, r := range f.rules {
		if (r.From == "" || r.From == from) && (r.Service == "" || r.Service == service) {
			return true
		}
	}
	return false
}

// Site is one institution on the network.
type Site struct {
	ID       SiteID
	Firewall *Firewall
	// LANLatency is the intra-site delivery delay (loopback messages).
	LANLatency sim.Time

	// idx is the site's dense index in its network; peers holds the link to
	// each other site by that site's index (nil: not connected). Connect
	// grows the two rows it touches, so adding a site reallocates nothing.
	idx   int
	peers []*Link
}

// linkTo returns the link joining s and o, or nil.
func (s *Site) linkTo(o *Site) *Link {
	if o.idx < len(s.peers) {
		return s.peers[o.idx]
	}
	return nil
}

// setPeer files l in s's row under o's index.
func (s *Site) setPeer(o *Site, l *Link) {
	if o.idx >= len(s.peers) {
		s.peers = append(s.peers, make([]*Link, o.idx+1-len(s.peers))...)
	}
	s.peers[o.idx] = l
}

// Network is the federation-wide WAN model. Create with New, add sites and
// links, then Send messages. All timing runs on the supplied sim.Engine.
type Network struct {
	eng     *sim.Engine
	rnd     *rng.Stream
	sites   map[SiteID]*Site
	metrics *telemetry.Registry
	prof    *prof.Profiler

	// Hot-path state: counters and the delay histogram resolve once at
	// construction instead of per send; arriveFn is the single prebound
	// delivery trampoline; free heads the pooled transit list, so a send
	// in steady state allocates nothing.
	sentC      *telemetry.Counter
	bytesC     *telemetry.Counter
	deliveredC *telemetry.Counter
	firewalled *telemetry.Counter
	linkDownC  *telemetry.Counter
	lostC      *telemetry.Counter
	inflightC  *telemetry.Counter
	delayH     *telemetry.Histogram
	arriveFn   func(any)
	free       *transit

	// DropInFlight re-checks the link at the arrival instant: a message
	// accepted while the link was up is dropped if the link went down while
	// it was in flight. Off by default — the base model commits delivery at
	// send time — and enabled by chaos runs, where partitions must cut
	// traffic already on the wire.
	DropInFlight bool
	// DeliverHook, when set, observes every message at the instant it is
	// delivered (after the DropInFlight check). Chaos invariant checkers use
	// it to independently assert that no message crosses a down link.
	DeliverHook func(Message)
}

// New returns an empty network bound to the engine and random stream.
func New(eng *sim.Engine, rnd *rng.Stream) *Network {
	n := &Network{
		eng:     eng,
		rnd:     rnd.Fork("netsim"),
		sites:   make(map[SiteID]*Site),
		metrics: telemetry.NewRegistry(),
	}
	n.sentC = n.metrics.Counter("net.sent")
	n.bytesC = n.metrics.Counter("net.bytes_sent")
	n.deliveredC = n.metrics.Counter("net.delivered")
	n.firewalled = n.metrics.Counter("net.firewalled")
	n.linkDownC = n.metrics.Counter("net.link_down_drops")
	n.lostC = n.metrics.Counter("net.lost")
	n.inflightC = n.metrics.Counter("net.inflight_drops")
	n.delayH = n.metrics.Histogram("net.delay_s")
	n.arriveFn = n.arriveTransit
	return n
}

// transit is the pooled in-flight carrier for one message. It is released
// back to the network's freelist when delivery completes, making the
// send→deliver cycle allocation-free in steady state.
type transit struct {
	msg      Message
	src, dst *Site
	deliver  func(Message)
	next     *transit
}

func (n *Network) acquireTransit() *transit {
	t := n.free
	if t == nil {
		return &transit{}
	}
	n.free = t.next
	t.next = nil
	return t
}

func (n *Network) releaseTransit(t *transit) {
	*t = transit{next: n.free}
	n.free = t
}

// Engine exposes the simulation engine the network runs on.
func (n *Network) Engine() *sim.Engine { return n.eng }

// Metrics exposes the network's telemetry registry.
func (n *Network) Metrics() *telemetry.Registry { return n.metrics }

// SetProfiler attaches the spine profiler (nil disables, the default).
// Send admission runs under net.send; arrivals run under net.deliver, and
// every admitted hop records its modeled delay as a net.deliver sample
// carrying the message's trace ID as exemplar.
func (n *Network) SetProfiler(p *prof.Profiler) { n.prof = p }

// AddSite registers a site. Adding a duplicate ID panics: topology is
// program-defined, so a duplicate is a programming error.
func (n *Network) AddSite(id SiteID) *Site {
	if _, ok := n.sites[id]; ok {
		panic(fmt.Sprintf("netsim: duplicate site %q", id))
	}
	s := &Site{ID: id, Firewall: &Firewall{}, LANLatency: 200 * sim.Microsecond, idx: len(n.sites)}
	n.sites[id] = s
	return s
}

// Site returns the named site, or nil.
func (n *Network) Site(id SiteID) *Site { return n.sites[id] }

// Sites returns all site IDs in sorted order.
func (n *Network) Sites() []SiteID {
	ids := make([]SiteID, 0, len(n.sites))
	for id := range n.sites {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Connect joins two sites with a link. Reconnecting replaces the link.
func (n *Network) Connect(a, b SiteID, l Link) *Link {
	sa, ok := n.sites[a]
	if !ok {
		panic(fmt.Sprintf("netsim: connect unknown site %q", a))
	}
	sb, ok := n.sites[b]
	if !ok {
		panic(fmt.Sprintf("netsim: connect unknown site %q", b))
	}
	if a == b {
		panic("netsim: self-link")
	}
	l.up = true
	lp := &l
	sa.setPeer(sb, lp)
	sb.setPeer(sa, lp)
	return lp
}

// LinkBetween returns the link joining a and b, or nil.
func (n *Network) LinkBetween(a, b SiteID) *Link {
	sa, sb := n.sites[a], n.sites[b]
	if sa == nil || sb == nil {
		return nil
	}
	return sa.linkTo(sb)
}

// SetLinkUp injects a link failure (up=false) or repair (up=true).
func (n *Network) SetLinkUp(a, b SiteID, up bool) {
	if l := n.LinkBetween(a, b); l != nil {
		l.up = up
	}
}

// Partition takes down every link between the two groups, simulating a
// network partition. Heal restores them.
func (n *Network) Partition(groupA, groupB []SiteID) {
	n.setGroupLinks(groupA, groupB, false)
}

// Heal restores links between the two groups.
func (n *Network) Heal(groupA, groupB []SiteID) {
	n.setGroupLinks(groupA, groupB, true)
}

func (n *Network) setGroupLinks(groupA, groupB []SiteID, up bool) {
	for _, a := range groupA {
		for _, b := range groupB {
			n.SetLinkUp(a, b, up)
		}
	}
}

// Message is one network-level datagram. Payload is opaque to the network.
type Message struct {
	From    SiteID
	To      SiteID
	Service string // firewall service label (e.g. "bus", "discovery")
	Size    int    // bytes, used for serialization delay
	Payload any
	// Trace, when enabled, records each hop as a net.deliver span.
	Trace trace.Context
}

// Send schedules delivery of msg; deliver runs at the arrival instant.
// It returns an error synchronously when the message cannot be admitted
// (unknown site, no route, link down, firewall). Loss is silent: the message
// is accepted and then dropped, exactly as a WAN behaves — callers recover
// with timeouts and retries.
func (n *Network) Send(msg Message, deliver func(Message)) error {
	return n.SendSites(n.sites[msg.From], n.sites[msg.To], &msg, deliver)
}

// SendSites is Send for a sender that has already resolved msg.From and
// msg.To to this network's sites of those names (nil for a site it does not
// know). It is the one admission path: msg is copied once, into the pooled
// transit.
func (n *Network) SendSites(src, dst *Site, msg *Message, deliver func(Message)) error {
	r := n.prof.Enter(prof.SiteNetSend)
	err := n.admit(src, dst, msg, deliver)
	r.End()
	return err
}

// admit is SendSites inside its net.send region.
func (n *Network) admit(src, dst *Site, msg *Message, deliver func(Message)) error {
	if src == nil {
		return fmt.Errorf("%w: %q", ErrUnknownSite, msg.From)
	}
	if dst == nil {
		return fmt.Errorf("%w: %q", ErrUnknownSite, msg.To)
	}

	n.sentC.Inc()
	n.bytesC.Add(int64(msg.Size))

	// Loopback: LAN latency only, no firewall (intra-site traffic).
	if src == dst {
		n.recordHop(msg, dst.LANLatency)
		n.scheduleArrival(dst.LANLatency, src, dst, msg, deliver)
		n.deliveredC.Inc()
		return nil
	}

	if !dst.Firewall.Admits(msg.From, msg.Service) {
		n.firewalled.Inc()
		return fmt.Errorf("%w: %s -> %s service %q", ErrFirewall, msg.From, msg.To, msg.Service)
	}

	link := src.linkTo(dst)
	if link == nil {
		return fmt.Errorf("%w: %s <-> %s", ErrNoRoute, msg.From, msg.To)
	}
	// Each direction has its own slot; slot 1 carries From > To.
	dir := 0
	if msg.From > msg.To {
		dir = 1
	}
	if !link.up {
		n.linkDownC.Inc()
		if link.downErr == nil {
			link.downErr = new([2]error)
		}
		if link.downErr[dir] == nil {
			link.downErr[dir] = fmt.Errorf("%w: %s <-> %s", ErrLinkDown, msg.From, msg.To)
		}
		return link.downErr[dir]
	}

	if link.Loss > 0 && n.rnd.Bool(link.Loss) {
		// Accepted then lost in flight.
		n.lostC.Inc()
		return nil
	}

	delay := n.transferDelay(link, dir, msg.Size)
	n.delayH.Observe(delay.Seconds())
	n.recordHop(msg, delay)
	n.scheduleArrival(delay, src, dst, msg, deliver)
	n.deliveredC.Inc()
	return nil
}

// scheduleArrival books the arrival event, carrying the message and its
// sites in a pooled transit released at delivery.
func (n *Network) scheduleArrival(delay sim.Time, src, dst *Site, msg *Message, deliver func(Message)) {
	t := n.acquireTransit()
	t.msg = *msg
	t.src, t.dst = src, dst
	t.deliver = deliver
	n.eng.ScheduleArg(delay, n.arriveFn, t)
}

// arriveTransit completes one delivery: under DropInFlight a cross-site
// message whose link dropped while it was on the wire is discarded, and
// the DeliverHook (if any) observes whatever actually lands. The transit
// returns to the pool when delivery (including everything the receiver
// does synchronously) finishes.
func (n *Network) arriveTransit(x any) {
	t := x.(*transit)
	r := n.prof.Enter(prof.SiteNetDeliver)
	n.arrive(t)
	n.releaseTransit(t)
	r.End()
}

// arrive lands one transit: the in-flight drop check, then delivery.
func (n *Network) arrive(t *transit) {
	if n.DropInFlight && t.src != t.dst {
		if l := t.src.linkTo(t.dst); l == nil || !l.up {
			n.inflightC.Inc()
			return
		}
	}
	if n.DeliverHook != nil {
		n.DeliverHook(t.msg)
	}
	t.deliver(t.msg)
}

// recordHop records one admitted hop as a net.deliver span under the
// message's trace context. The whole delay is known at send time (the model
// is deterministic given the jitter draw), so the span is recorded
// immediately; lost messages never reach here and leave no span.
func (n *Network) recordHop(msg *Message, delay sim.Time) {
	n.prof.Sample(prof.SiteNetDeliver, delay.Std(), msg.Trace.TraceID())
	if !msg.Trace.Enabled() {
		return
	}
	now := n.eng.Now()
	sp, cc := msg.Trace.Start(now, string(msg.To), trace.KindNetDeliver, msg.Service)
	sp.SetStr("from", string(msg.From))
	sp.SetAttr("bytes", float64(msg.Size))
	sp.SetAttr("latency_s", delay.Seconds())
	cc.Finish(&sp, now+delay)
}

// transferDelay computes FIFO serialization + propagation + jitter for one
// message, advancing the link's busy horizon.
func (n *Network) transferDelay(l *Link, dir int, size int) sim.Time {
	now := n.eng.Now()
	start := now
	if l.busyUntil[dir] > start {
		start = l.busyUntil[dir]
	}
	var tx sim.Time
	if l.Bandwidth > 0 && size > 0 {
		tx = sim.Time(float64(size) / l.Bandwidth * float64(sim.Second))
	}
	l.busyUntil[dir] = start + tx

	lat := l.Latency
	if l.Jitter > 0 {
		j := n.rnd.Normal(0, float64(l.Jitter))
		lat += sim.Time(j)
		if lat < 0 {
			lat = 0
		}
	}
	return (start - now) + tx + lat
}

// Reachable reports whether a message could currently travel a->b for the
// given service (route exists, link up, firewall admits). It does not
// account for loss.
func (n *Network) Reachable(a, b SiteID, service string) bool {
	if a == b {
		return true
	}
	dst, ok := n.sites[b]
	if !ok {
		return false
	}
	if !dst.Firewall.Admits(a, service) {
		return false
	}
	l := n.LinkBetween(a, b)
	return l != nil && l.up
}

// FullMesh connects every pair of the given sites with copies of the
// template link — the common testbed topology in experiments.
func (n *Network) FullMesh(sites []SiteID, template Link) {
	for i := 0; i < len(sites); i++ {
		for j := i + 1; j < len(sites); j++ {
			n.Connect(sites[i], sites[j], template)
		}
	}
}
