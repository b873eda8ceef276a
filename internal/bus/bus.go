// Package bus implements the interoperable agent-communication layer of
// AISLE (paper dimension 4, milestone M10): message-oriented middleware over
// the simulated WAN offering the three interaction patterns the paper calls
// for —
//
//   - synchronous request-reply RPC with timeouts, retries, and failover
//     (the role gRPC plays in the roadmap),
//   - asynchronous work queues with acknowledgements, redelivery, and
//     dead-lettering (the role of AMQP), and
//   - publish/subscribe fan-out with at-most-once or at-least-once QoS.
//
// Delivery middleware hooks let the zero-trust layer (internal/security)
// authenticate every message without the bus knowing about tokens.
package bus

import (
	"errors"
	"fmt"

	"github.com/aisle-sim/aisle/internal/netsim"
	"github.com/aisle-sim/aisle/internal/prof"
	"github.com/aisle-sim/aisle/internal/sim"
	"github.com/aisle-sim/aisle/internal/telemetry"
	"github.com/aisle-sim/aisle/internal/trace"
)

// Address identifies an endpoint: a named mailbox at a site.
type Address struct {
	Site netsim.SiteID
	Name string
}

// String renders site/name.
func (a Address) String() string { return string(a.Site) + "/" + a.Name }

// Kind discriminates envelope types on the wire.
type Kind int

// Envelope kinds.
const (
	KindRequest Kind = iota
	KindReply
	KindEvent
	KindQueueMsg
	KindAck
	KindNack
)

// Envelope is one bus-level message.
type Envelope struct {
	ID      uint64
	Kind    Kind
	From    Address
	To      Address
	Topic   string // event topic or queue name
	Method  string // RPC method
	CorrID  uint64 // request/response correlation, delivery tag for acks
	Payload any
	Token   any // opaque credential checked by middleware
	Size    int // payload size in bytes for the network model
	Attempt int // delivery attempt, 1-based
	// Trace is the causal context the envelope travels under; the network
	// layer records per-hop delivery spans against it.
	Trace trace.Context

	// The hop's brokers, resolved once by the sender, and the call or
	// publish a request, reply, event or ack
	// belongs to. Those are pooled, so an answer settles its target only
	// if the target's current correlation ID is CorrID.
	src, dst *Broker
	pc       *pendingCall
	pub      *pendingPub

	// Pool bookkeeping. Envelopes on the hot paths (requests, replies,
	// events, acks) come from the fabric's freelist and are recycled at
	// well-defined points: replies/events/acks when broker dispatch returns,
	// requests when the handler's respond builds the reply. Application
	// code may read a delivered envelope only within that window; payloads
	// are caller-owned and stay valid. Queue envelopes are never pooled —
	// queues retain them in backlogs, inflight tables, and DLQs.
	pooled   bool
	poolNext *Envelope
}

// Errors surfaced to RPC callers and queue producers.
var (
	ErrTimeout       = errors.New("bus: request timed out")
	ErrNoEndpoint    = errors.New("bus: no such endpoint")
	ErrNoQueue       = errors.New("bus: no such queue")
	ErrRejected      = errors.New("bus: rejected by middleware")
	ErrNoConsumers   = errors.New("bus: queue has no consumers")
	ErrUnreachable   = errors.New("bus: destination unreachable")
	ErrHandlerFailed = errors.New("bus: handler failed")
)

// Middleware inspects an envelope at delivery; a non-nil error rejects it.
type Middleware func(*Envelope) error

// Handler processes a request and must eventually call respond exactly once.
type Handler func(env *Envelope, respond func(result any, err error))

// Fabric is the federation-wide bus: one broker per site, connected by the
// network. Create with NewFabric, then Register endpoints, Subscribe,
// DeclareQueue, and exchange messages.
type Fabric struct {
	net     *netsim.Network
	eng     *sim.Engine
	metrics *telemetry.Registry
	brokers map[netsim.SiteID]*Broker
	nextID  uint64
	mw      []Middleware

	// pub/sub state shared across sites.
	topicSubs    map[string][]subscriberRef
	awaitingConf map[uint64]sim.Event // queue publisher confirms by CorrID
	deadLetters  []*Envelope

	// Freelists for the pooled hot-path objects. Single-threaded like the
	// engine itself, so plain pointers suffice.
	envFree  *Envelope
	pcFree   *pendingCall
	respFree *responder
	pubFree  *pendingPub

	// deliverFn is the prebound network-delivery trampoline shared by every
	// send, so admission does not allocate a closure per message.
	deliverFn func(netsim.Message)

	// Cached hot-path metric handles, resolved once at construction.
	delivered, rejected             *telemetry.Counter
	rpcCalls, rpcRetries            *telemetry.Counter
	rpcOK, rpcFailures              *telemetry.Counter
	pubPublished, pubSent, pubAcked *telemetry.Counter
	pubRedelivered, pubDLQ          *telemetry.Counter
	rpcLatency                      *telemetry.Histogram

	// DefaultSize is the assumed payload size when an envelope has Size 0.
	DefaultSize int

	// TokenSource, when set, supplies a credential for outbound envelopes
	// that carry none — how infrastructure traffic (discovery gossip,
	// knowledge propagation) authenticates under zero trust without every
	// subsystem knowing about tokens.
	TokenSource func(from Address) any
}

// NewFabric builds a bus spanning the given network.
func NewFabric(net *netsim.Network) *Fabric {
	f := &Fabric{
		net:         net,
		eng:         net.Engine(),
		metrics:     net.Metrics(),
		brokers:     make(map[netsim.SiteID]*Broker),
		DefaultSize: 256,
	}
	f.deliverFn = f.deliverMsg
	m := f.metrics
	f.delivered = m.Counter("bus.delivered")
	f.rejected = m.Counter("bus.rejected")
	f.rpcCalls = m.Counter("bus.rpc.calls")
	f.rpcRetries = m.Counter("bus.rpc.retries")
	f.rpcOK = m.Counter("bus.rpc.ok")
	f.rpcFailures = m.Counter("bus.rpc.failures")
	f.rpcLatency = m.Histogram("bus.rpc.latency_s")
	f.pubPublished = m.Counter("bus.pub.published")
	f.pubSent = m.Counter("bus.pub.sent")
	f.pubAcked = m.Counter("bus.pub.acked")
	f.pubRedelivered = m.Counter("bus.pub.redelivered")
	f.pubDLQ = m.Counter("bus.pub.dlq")
	return f
}

// acquireEnv pops a zeroed envelope off the freelist (or allocates one).
func (f *Fabric) acquireEnv() *Envelope {
	e := f.envFree
	if e == nil {
		e = &Envelope{}
	} else {
		f.envFree = e.poolNext
		e.poolNext = nil
	}
	e.pooled = true
	return e
}

// releaseEnv recycles a pooled envelope; foreign envelopes (queue messages,
// test fixtures) are left to the garbage collector.
func (f *Fabric) releaseEnv(e *Envelope) {
	if !e.pooled {
		return
	}
	*e = Envelope{poolNext: f.envFree}
	f.envFree = e
}

// Metrics exposes bus telemetry: the network's registry, which the bus
// counts into.
func (f *Fabric) Metrics() *telemetry.Registry { return f.metrics }

// Engine exposes the simulation engine.
func (f *Fabric) Engine() *sim.Engine { return f.eng }

// Use appends delivery middleware applied to every inbound envelope at its
// destination broker, in registration order.
func (f *Fabric) Use(m Middleware) { f.mw = append(f.mw, m) }

// Broker returns (creating on demand) the broker at a site.
func (f *Fabric) Broker(site netsim.SiteID) *Broker {
	b, ok := f.brokers[site]
	if !ok {
		b = &Broker{
			fabric:    f,
			site:      site,
			endpoints: make(map[string]endpoint),
			subs:      make(map[string][]subscription),
			queues:    make(map[string]*Queue),
		}
		f.brokers[site] = b
	}
	return b
}

func (f *Fabric) id() uint64 {
	f.nextID++
	return f.nextID
}

// send routes an envelope over the network to the destination broker. The
// returned error reports synchronous admission failures (link down,
// firewall); silent loss is not reported, as on a real WAN. On admission
// failure the envelope is dead and returns to the pool.
func (f *Fabric) send(env *Envelope) error {
	size := env.Size
	if size == 0 {
		size = f.DefaultSize
	}
	if env.Token == nil && f.TokenSource != nil {
		env.Token = f.TokenSource(env.From)
	}
	// Filled field by field: a composite literal would be built aside and
	// copied, and this runs once per message.
	var msg netsim.Message
	msg.From, msg.To = env.From.Site, env.To.Site
	msg.Service, msg.Size = "bus", size
	msg.Payload, msg.Trace = env, env.Trace
	err := f.net.SendSites(env.src.netSite(), env.dst.netSite(), &msg, f.deliverFn)
	if err != nil {
		f.releaseEnv(env)
	}
	return err
}

// deliverMsg is the shared arrival trampoline: the envelope rides in the
// message payload and carries its destination broker.
func (f *Fabric) deliverMsg(m netsim.Message) {
	env := m.Payload.(*Envelope)
	env.dst.deliver(env)
}

// Broker is the per-site message broker.
type Broker struct {
	fabric      *Fabric
	site        netsim.SiteID
	ns          *netsim.Site // the network's site, once it knows it
	endpoints   map[string]endpoint
	subs        map[string][]subscription
	queues      map[string]*Queue
	consumerFns map[consumerKey]func(*Envelope) error
	seenPublish map[uint64]bool
}

// netSite returns the network's site for b, resolving it on first use; nil
// while the network does not know it, which SendSites refuses as an unknown
// site by name.
func (b *Broker) netSite() *netsim.Site {
	if b.ns == nil {
		b.ns = b.fabric.net.Site(b.site)
	}
	return b.ns
}

// endpoint is one registered request handler: an asynchronous Handler, or —
// when h is nil — a synchronous fn served procTime after arrival by the
// request's pooled responder.
type endpoint struct {
	h        Handler
	fn       func(*Envelope) (any, error)
	procTime sim.Time
}

type subscription struct {
	addr Address
	qos  QoS
	fn   func(*Envelope)
}

// Register installs an asynchronous handler for the named endpoint.
func (b *Broker) Register(name string, h Handler) {
	b.endpoints[name] = endpoint{h: h}
}

// RegisterFunc installs a synchronous handler that computes its reply
// immediately. procTime > 0 models server processing latency.
func (b *Broker) RegisterFunc(name string, procTime sim.Time, fn func(*Envelope) (any, error)) {
	if procTime <= 0 {
		b.Register(name, func(env *Envelope, respond func(any, error)) { respond(fn(env)) })
		return
	}
	b.endpoints[name] = endpoint{fn: fn, procTime: procTime}
}

// deliver dispatches an inbound envelope: middleware first, then per-kind.
// Pooled envelopes are recycled when dispatch returns, except requests —
// those stay live until the handler responds and reply consumes them.
func (b *Broker) deliver(env *Envelope) {
	r := b.fabric.eng.Prof.Enter(prof.SiteBusDispatch)
	b.dispatch(env)
	r.End()
}

// dispatch is deliver inside its bus.dispatch region.
func (b *Broker) dispatch(env *Envelope) {
	f := b.fabric
	f.delivered.Inc()
	for _, mw := range f.mw {
		if err := mw(env); err != nil {
			f.rejected.Inc()
			if env.Kind == KindRequest {
				// Tell the caller rather than let it time out.
				b.reply(env, nil, fmt.Errorf("%w: %v", ErrRejected, err))
			} else if env.Kind != KindQueueMsg {
				f.releaseEnv(env)
			}
			return
		}
	}
	switch env.Kind {
	case KindRequest:
		ep, ok := b.endpoints[env.To.Name]
		if !ok {
			b.reply(env, nil, fmt.Errorf("%w: %s", ErrNoEndpoint, env.To))
			return
		}
		rd := f.acquireResponder(b, env)
		if ep.h != nil {
			ep.h(env, rd.fn)
		} else {
			// The function captured now runs even if the endpoint is
			// deregistered before the timer fires.
			rd.serve = ep.fn
			f.eng.ScheduleArg(ep.procTime, serveLater, rd)
		}
		return
	case KindQueueMsg:
		// Queue messages are handled broker-locally in Queue.dispatch; a
		// remote consumer receives the message here. Queues own their
		// envelopes (backlogs, redelivery, DLQ), so no release.
		b.handleQueueDelivery(env)
		return
	case KindReply:
		if pc := env.pc; pc != nil && pc.corr == env.CorrID {
			pc.complete(env.Payload, pc.errFromEnvelope(env))
		}
	case KindEvent:
		for _, sub := range b.subs[env.Topic] {
			if sub.addr == env.To {
				sub.fn(env)
				if sub.qos == AtLeastOnce {
					b.sendAck(env)
				}
			}
		}
	case KindAck, KindNack:
		b.handleAck(env)
	}
	f.releaseEnv(env)
}

// responder carries the respond-exactly-once guard for one in-flight
// request. Pooled; fn is the respond method bound once at allocation so
// handing it to a handler does not allocate. serve is set only while a
// RegisterFunc endpoint's processing time runs (see serveLater).
type responder struct {
	b     *Broker
	env   *Envelope
	done  bool
	fn    func(any, error)
	serve func(*Envelope) (any, error)
	next  *responder
}

// serveLater is the timer callback of a RegisterFunc endpoint with a
// processing time: it runs the function the responder carries and replies.
func serveLater(arg any) {
	r := arg.(*responder)
	fn := r.serve
	r.serve = nil
	r.respond(fn(r.env))
}

func (f *Fabric) acquireResponder(b *Broker, env *Envelope) *responder {
	r := f.respFree
	if r == nil {
		r = &responder{}
		r.fn = r.respond
	} else {
		f.respFree = r.next
		r.next = nil
	}
	r.b, r.env, r.done = b, env, false
	return r
}

func (r *responder) respond(result any, err error) {
	if r.done {
		panic("bus: handler responded twice")
	}
	r.done = true
	b, env := r.b, r.env
	b.reply(env, result, err)
	f := b.fabric
	r.b, r.env = nil, nil
	r.next = f.respFree
	f.respFree = r
}

// replyErr wraps handler errors for wire transport.
type replyErr struct{ msg string }

// reply consumes a request: it sends the response and recycles the request
// envelope, which must not be touched afterwards.
func (b *Broker) reply(req *Envelope, result any, err error) {
	f := b.fabric
	env := f.acquireEnv()
	env.ID = f.id()
	env.Kind = KindReply
	env.From = req.To
	env.To = req.From
	env.src, env.dst, env.pc = b, req.src, req.pc
	env.Method = req.Method
	env.CorrID = req.CorrID
	env.Size = f.DefaultSize
	env.Trace = req.Trace
	if err != nil {
		env.Payload = replyErr{msg: err.Error()}
	} else {
		env.Payload = result
	}
	_ = f.send(env)
	f.releaseEnv(req)
}

// pendingCall tracks one in-flight RPC across its attempts. Pooled;
// timeoutFn/retryFn are method values bound once at allocation so arming a
// timer never allocates. At release time no event references the call:
// completion cancels the timeout, and a completed call never has a backoff
// retry pending (retries are only scheduled when no completion can race).
// Requests and replies point at their call; a reply completes it only if it
// carries the call's current correlation ID. IDs are never reused, every
// attempt takes a new one before its request leaves, and release zeroes it,
// so a late reply to an earlier attempt, or to a call since recycled, is
// dropped.
type pendingCall struct {
	cb      func(any, error)
	timer   sim.Event
	done    bool
	fabric  *Fabric
	started sim.Time
	trace   uint64 // trace ID for the completion's profiler exemplar

	opts   CallOpts
	caller *Broker
	corr   uint64 // correlation ID of the current attempt
	n      int    // current attempt index

	timeoutFn func(any)
	retryFn   func(any)
	next      *pendingCall
}

func (f *Fabric) acquirePC() *pendingCall {
	pc := f.pcFree
	if pc == nil {
		pc = &pendingCall{}
		pc.timeoutFn = pc.onTimeout
		pc.retryFn = pc.onRetry
	} else {
		f.pcFree = pc.next
		pc.next = nil
	}
	return pc
}

func (f *Fabric) releasePC(pc *pendingCall) {
	tf, rf := pc.timeoutFn, pc.retryFn
	*pc = pendingCall{timeoutFn: tf, retryFn: rf, next: f.pcFree}
	f.pcFree = pc
}

func (pc *pendingCall) onTimeout(any) { pc.attempt(pc.n + 1) }

func (pc *pendingCall) onRetry(any) { pc.attempt(pc.n + 1) }

func (pc *pendingCall) complete(result any, err error) {
	if pc.done {
		return
	}
	pc.done = true
	f := pc.fabric
	if pc.timer.Valid() {
		f.eng.Cancel(pc.timer)
	}
	wait := f.eng.Now() - pc.started
	f.eng.Prof.Sample(prof.SiteBusDispatch, wait.Std(), pc.trace)
	f.rpcLatency.Observe(wait.Seconds())
	if err != nil {
		f.rpcFailures.Inc()
	} else {
		f.rpcOK.Inc()
	}
	cb := pc.cb
	f.releasePC(pc)
	cb(result, err)
}

func (pc *pendingCall) errFromEnvelope(env *Envelope) error {
	if re, ok := env.Payload.(replyErr); ok {
		return fmt.Errorf("%w: %s", ErrHandlerFailed, re.msg)
	}
	return nil
}

// timeoutError is the terminal error of a call that ran out of attempts. Most
// such calls (gossip to a down or partitioned peer) are only counted by their
// callback, so the text is rendered when read, not when the call fails.
type timeoutError struct {
	attempts int
	method   string
	to       Address
}

func (e *timeoutError) Error() string {
	return fmt.Sprintf("%v after %d attempts: %s %s", ErrTimeout, e.attempts, e.method, e.to)
}

func (e *timeoutError) Unwrap() error { return ErrTimeout }

// CallOpts configures an RPC.
type CallOpts struct {
	From       Address
	To         Address
	Method     string
	Payload    any
	Token      any
	Size       int
	Timeout    sim.Time  // per-attempt timeout; default 1s
	Retries    int       // additional attempts after the first
	Alternates []Address // failover targets tried round-robin after To fails
	// Trace propagates the caller's causal context with every attempt.
	Trace trace.Context
}

// Call issues an asynchronous RPC; cb runs exactly once with the reply or a
// terminal error. Retries and failover are transparent: each attempt gets a
// fresh timeout, alternating through To plus Alternates.
func (f *Fabric) Call(opts CallOpts, cb func(result any, err error)) {
	if opts.Timeout <= 0 {
		opts.Timeout = sim.Second
	}
	f.rpcCalls.Inc()

	pc := f.acquirePC()
	pc.cb = cb
	pc.fabric = f
	pc.started = f.eng.Now()
	pc.trace = opts.Trace.TraceID()
	pc.opts = opts
	pc.caller = f.Broker(opts.From.Site)
	pc.attempt(0)
}

func (pc *pendingCall) attempt(n int) {
	if pc.done {
		return
	}
	pc.n = n
	f := pc.fabric
	if n > pc.opts.Retries {
		pc.complete(nil, &timeoutError{attempts: n, method: pc.opts.Method, to: pc.opts.To})
		return
	}
	if n > 0 {
		f.rpcRetries.Inc()
	}
	// Round-robin over To plus Alternates without materializing a slice.
	target := pc.opts.To
	if i := n % (1 + len(pc.opts.Alternates)); i > 0 {
		target = pc.opts.Alternates[i-1]
	}
	pc.corr = f.id()
	env := f.acquireEnv()
	env.ID = f.id()
	env.Kind = KindRequest
	env.From = pc.opts.From
	env.To = target
	env.src, env.dst, env.pc = pc.caller, f.Broker(target.Site), pc
	env.Method = pc.opts.Method
	env.CorrID = pc.corr
	env.Payload = pc.opts.Payload
	env.Token = pc.opts.Token
	env.Size = pc.opts.Size
	env.Attempt = n + 1
	env.Trace = pc.opts.Trace
	if f.send(env) != nil {
		// Connection refused: move to the next attempt after a short
		// backoff rather than burning the whole timeout.
		f.eng.ScheduleArg(pc.opts.Timeout/4+sim.Millisecond, pc.retryFn, nil)
		return
	}
	pc.timer = f.eng.ScheduleArg(pc.opts.Timeout, pc.timeoutFn, nil)
}

// QoS selects delivery guarantees for pub/sub.
type QoS int

// Delivery guarantee levels.
const (
	AtMostOnce QoS = iota
	AtLeastOnce
)
