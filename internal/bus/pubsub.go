package bus

import (
	"github.com/aisle-sim/aisle/internal/sim"
	"github.com/aisle-sim/aisle/internal/trace"
)

// Subscribe registers fn to receive events published on topic, delivered to
// addr's site. With AtLeastOnce QoS the subscriber's broker acknowledges
// each event and the publisher redelivers unacknowledged events.
func (f *Fabric) Subscribe(addr Address, topic string, qos QoS, fn func(*Envelope)) {
	b := f.Broker(addr.Site)
	b.subs[topic] = append(b.subs[topic], subscription{addr: addr, qos: qos, fn: fn})
	f.subscribers(topic) // touch global index
	f.topicSubs[topic] = append(f.topicSubs[topic], subscriberRef{addr: addr, qos: qos, b: b})
}

type subscriberRef struct {
	addr Address
	qos  QoS
	b    *Broker // addr's broker
}

func (f *Fabric) subscribers(topic string) []subscriberRef {
	if f.topicSubs == nil {
		f.topicSubs = make(map[string][]subscriberRef)
	}
	return f.topicSubs[topic]
}

// PublishOpts configures one publication.
type PublishOpts struct {
	From        Address
	Topic       string
	Payload     any
	Token       any
	Size        int
	QoS         QoS
	AckTimeout  sim.Time // redelivery timer for AtLeastOnce; default 2s
	MaxAttempts int      // total delivery attempts before DLQ; default 4
	// Trace propagates the publisher's causal context with each delivery.
	Trace trace.Context
}

// Publish fans the event out to every subscriber of the topic. With
// AtLeastOnce it tracks per-subscriber acknowledgements, redelivers on
// timeout, and dead-letters after MaxAttempts.
func (f *Fabric) Publish(opts PublishOpts) {
	if opts.AckTimeout <= 0 {
		opts.AckTimeout = 2 * sim.Second
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 4
	}
	f.pubPublished.Inc()
	src := f.Broker(opts.From.Site)
	for _, ref := range f.subscribers(opts.Topic) {
		f.deliverEvent(&opts, src, ref)
	}
}

// pendingPub tracks one at-least-once delivery across its attempts. It holds
// everything needed to redeliver or dead-letter without retaining the sent
// envelope, which the subscriber's broker recycles on delivery. Events and
// their acks point at it; an ack settles it only if it carries the current
// attempt's correlation ID (see pendingCall), so a late ack to an earlier
// attempt, or to a delivery since recycled, is not counted. Pooled; fireFn
// is the redelivery-timer method bound once at allocation.
type pendingPub struct {
	f       *Fabric
	opts    PublishOpts
	src     *Broker
	ref     subscriberRef
	attempt int
	corr    uint64 // the attempt's envelope ID doubles as correlation ID
	timer   sim.Event
	fireFn  func(any)
	next    *pendingPub
}

func (f *Fabric) acquirePub() *pendingPub {
	p := f.pubFree
	if p == nil {
		p = &pendingPub{f: f}
		p.fireFn = p.fire
	} else {
		f.pubFree = p.next
		p.next = nil
	}
	return p
}

func (f *Fabric) releasePub(p *pendingPub) {
	ff := p.fireFn
	*p = pendingPub{f: f, fireFn: ff, next: f.pubFree}
	f.pubFree = p
}

// fire runs when the ack timeout lapses: redeliver, or dead-letter after
// MaxAttempts. The dead-letter envelope is reconstructed from the retained
// publish state — field-for-field identical to the one that went unacked.
func (p *pendingPub) fire(any) {
	f := p.f
	if p.attempt >= p.opts.MaxAttempts {
		f.pubDLQ.Inc()
		f.deadLetters = append(f.deadLetters, &Envelope{
			ID:      p.corr,
			Kind:    KindEvent,
			From:    p.opts.From,
			To:      p.ref.addr,
			Topic:   p.opts.Topic,
			CorrID:  p.corr,
			Payload: p.opts.Payload,
			Token:   p.opts.Token,
			Size:    p.opts.Size,
			Attempt: p.attempt,
			Trace:   p.opts.Trace,
		})
		f.releasePub(p)
		return
	}
	f.pubRedelivered.Inc()
	p.send(p.attempt + 1)
}

// deliverEvent sends the first attempt of one publish to one subscriber.
func (f *Fabric) deliverEvent(opts *PublishOpts, src *Broker, ref subscriberRef) {
	if ref.qos == AtMostOnce {
		_ = f.send(f.eventEnv(opts, src, &ref, 1))
		f.pubSent.Inc()
		return
	}
	// AtLeastOnce: remember the delivery and arm the redelivery timer.
	p := f.acquirePub()
	p.opts, p.src, p.ref = *opts, src, ref
	p.send(1)
}

// send delivers the given attempt and arms its redelivery timer.
func (p *pendingPub) send(attempt int) {
	f := p.f
	env := f.eventEnv(&p.opts, p.src, &p.ref, attempt)
	f.pubSent.Inc()
	env.CorrID = env.ID
	env.pub = p
	p.attempt, p.corr = attempt, env.ID
	_ = f.send(env)
	p.timer = f.eng.ScheduleArg(p.opts.AckTimeout, p.fireFn, nil)
}

func (f *Fabric) eventEnv(opts *PublishOpts, src *Broker, ref *subscriberRef, attempt int) *Envelope {
	env := f.acquireEnv()
	env.ID = f.id()
	env.Kind = KindEvent
	env.From = opts.From
	env.To = ref.addr
	env.src, env.dst = src, ref.b
	env.Topic = opts.Topic
	env.Payload = opts.Payload
	env.Token = opts.Token
	env.Size = opts.Size
	env.Attempt = attempt
	env.Trace = opts.Trace
	return env
}

// sendAck confirms an at-least-once event back to the publishing fabric.
// In this in-process model the ack travels the reverse network path so its
// latency and loss are realistic.
func (b *Broker) sendAck(env *Envelope) {
	f := b.fabric
	ack := f.acquireEnv()
	ack.ID = f.id()
	ack.Kind = KindAck
	ack.From = env.To
	ack.To = env.From
	ack.src, ack.dst, ack.pub = b, env.src, env.pub
	ack.CorrID = env.CorrID
	ack.Size = 64
	_ = f.send(ack)
}

func (b *Broker) handleAck(env *Envelope) {
	f := b.fabric
	switch env.Kind {
	case KindAck:
		if p := env.pub; p != nil && p.corr == env.CorrID {
			f.eng.Cancel(p.timer)
			f.releasePub(p)
			f.pubAcked.Inc()
			return
		}
		if t, ok := f.awaitingConf[env.CorrID]; ok {
			// Queue publisher confirm. Counted as a pub ack, matching the
			// era when confirms and event acks shared one table.
			f.eng.Cancel(t)
			delete(f.awaitingConf, env.CorrID)
			f.pubAcked.Inc()
			return
		}
		// Queue consumer ack.
		b.queueAck(env, true)
	case KindNack:
		b.queueAck(env, false)
	}
}

// DeadLetters returns envelopes that exhausted redelivery, in arrival order.
func (f *Fabric) DeadLetters() []*Envelope { return f.deadLetters }
