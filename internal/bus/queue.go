package bus

import (
	"fmt"

	"github.com/aisle-sim/aisle/internal/sim"
)

// Queue is an AMQP-style work queue hosted on one broker: producers enqueue,
// competing consumers each receive distinct messages, failed or
// unacknowledged deliveries are redelivered to another consumer, and
// messages that exhaust MaxAttempts are dead-lettered.
type Queue struct {
	name   string
	broker *Broker

	// AckTimeout is how long a delivery may remain unacknowledged before
	// redelivery. Default 5s.
	AckTimeout sim.Time
	// MaxAttempts bounds total delivery attempts per message. Default 4.
	MaxAttempts int

	consumers []consumerRef
	backlog   []*Envelope
	inflight  map[uint64]*queueDelivery
	rr        int // round-robin cursor
	dlq       []*Envelope
}

type consumerRef struct {
	addr Address
	fn   func(*Envelope) error
}

type queueDelivery struct {
	env      *Envelope
	consumer Address
	timer    sim.Event
	attempt  int
}

// DeclareQueue creates (or returns) the named queue hosted at site.
func (f *Fabric) DeclareQueue(site Address, name string) *Queue {
	b := f.Broker(site.Site)
	if q, ok := b.queues[name]; ok {
		return q
	}
	q := &Queue{
		name:        name,
		broker:      b,
		AckTimeout:  5 * sim.Second,
		MaxAttempts: 4,
		inflight:    make(map[uint64]*queueDelivery),
	}
	b.queues[name] = q
	return q
}

// Queue returns the named queue at a site, or nil.
func (f *Fabric) Queue(site Address, name string) *Queue {
	return f.Broker(site.Site).queues[name]
}

// Consume registers a competing consumer. fn returning a non-nil error
// nacks the delivery, triggering redelivery to another consumer. Consumers
// may live at any site; deliveries traverse the network.
func (q *Queue) Consume(addr Address, fn func(*Envelope) error) {
	q.consumers = append(q.consumers, consumerRef{addr: addr, fn: fn})
	// A new consumer may unblock a backlog.
	q.broker.fabric.eng.Schedule(0, q.pump)
}

// Enqueue publishes a message onto the queue from the producer address.
// The message travels to the queue's host broker under publisher-confirm
// semantics: the host acknowledges receipt, and unconfirmed publishes are
// retransmitted (the host deduplicates), so producer-side loss does not
// silently drop work.
func (f *Fabric) Enqueue(from Address, queueSite Address, queueName string, payload any, size int) error {
	b := f.Broker(queueSite.Site)
	if _, ok := b.queues[queueName]; !ok {
		return fmt.Errorf("%w: %s at %s", ErrNoQueue, queueName, queueSite.Site)
	}
	env := &Envelope{
		ID:      f.id(),
		Kind:    KindQueueMsg,
		From:    from,
		To:      Address{Site: queueSite.Site, Name: "queue:" + queueName},
		Topic:   queueName,
		Payload: payload,
		Size:    size,
		CorrID:  f.id(),
		src:     f.Broker(from.Site),
		dst:     b,
	}
	f.metrics.Counter("bus.queue.enqueued").Inc()
	// Producer -> host broker hop: fail fast on hard unreachability, retry
	// on silent loss.
	if sendErr := f.send(env); sendErr != nil {
		return fmt.Errorf("%w: %v", ErrUnreachable, sendErr)
	}
	f.armPublishConfirm(env, 1)
	return nil
}

// publishConfirmAttempts bounds enqueue retransmissions.
const publishConfirmAttempts = 8

// armPublishConfirm schedules a retransmission unless the host confirms.
// The same envelope is retransmitted verbatim (the host deduplicates by
// ID), which is why queue envelopes are never pooled.
func (f *Fabric) armPublishConfirm(env *Envelope, attempt int) {
	if f.awaitingConf == nil {
		f.awaitingConf = make(map[uint64]sim.Event)
	}
	timer := f.eng.Schedule(500*sim.Millisecond, func() {
		delete(f.awaitingConf, env.CorrID)
		if attempt >= publishConfirmAttempts {
			f.metrics.Counter("bus.queue.publish_failed").Inc()
			return
		}
		f.metrics.Counter("bus.queue.publish_retries").Inc()
		_ = f.send(env)
		f.armPublishConfirm(env, attempt+1)
	})
	f.awaitingConf[env.CorrID] = timer
}

// handleQueueDelivery runs on the broker receiving a KindQueueMsg envelope.
// If this broker hosts the queue, the message enters the backlog; otherwise
// the envelope is a dispatch to a consumer endpoint at this site.
func (b *Broker) handleQueueDelivery(env *Envelope) {
	if q, ok := b.queues[env.Topic]; ok && env.To.Name == "queue:"+env.Topic {
		// Publisher confirm: acknowledge receipt and deduplicate
		// retransmissions by envelope ID.
		conf := &Envelope{
			ID: b.fabric.id(), Kind: KindAck,
			From: env.To, To: env.From, CorrID: env.CorrID, Size: 64,
			src: b, dst: env.src,
		}
		_ = b.fabric.send(conf)
		if b.seenPublish == nil {
			b.seenPublish = make(map[uint64]bool)
		}
		if b.seenPublish[env.ID] {
			return
		}
		b.seenPublish[env.ID] = true
		q.backlog = append(q.backlog, env)
		q.pump()
		return
	}
	// Consumer-side delivery: find the matching consumer callback that the
	// host registered under this address via remote dispatch below.
	if b.consumerFns == nil {
		return
	}
	key := consumerKey{queue: env.Topic, addr: env.To}
	fn, ok := b.consumerFns[key]
	if !ok {
		return
	}
	err := fn(env)
	ack := &Envelope{
		ID:     b.fabric.id(),
		From:   env.To,
		To:     env.From, // the host broker's queue endpoint
		Topic:  env.Topic,
		CorrID: env.CorrID,
		Size:   64,
		src:    b,
		dst:    env.src,
	}
	if err != nil {
		ack.Kind = KindNack
		b.fabric.metrics.Counter("bus.queue.nacked").Inc()
	} else {
		ack.Kind = KindAck
	}
	_ = b.fabric.send(ack)
}

type consumerKey struct {
	queue string
	addr  Address
}

// pump dispatches backlog messages to available consumers round-robin.
func (q *Queue) pump() {
	f := q.broker.fabric
	for len(q.backlog) > 0 && len(q.consumers) > 0 {
		env := q.backlog[0]
		q.backlog = q.backlog[1:]
		q.dispatch(env, env.Attempt+1)
	}
	if len(q.backlog) > 0 && len(q.consumers) == 0 {
		f.metrics.Counter("bus.queue.stalled").Add(int64(len(q.backlog)))
	}
}

// dispatch sends env to the next consumer and arms the redelivery timer.
func (q *Queue) dispatch(env *Envelope, attempt int) {
	f := q.broker.fabric
	if attempt > q.MaxAttempts {
		q.dlq = append(q.dlq, env)
		f.metrics.Counter("bus.queue.dlq").Inc()
		return
	}
	if len(q.consumers) == 0 {
		env.Attempt = attempt - 1
		q.backlog = append(q.backlog, env)
		return
	}
	c := q.consumers[q.rr%len(q.consumers)]
	q.rr++

	tag := f.id()
	d := &Envelope{
		ID:      f.id(),
		Kind:    KindQueueMsg,
		From:    Address{Site: q.broker.site, Name: "queue:" + q.name},
		To:      c.addr,
		Topic:   q.name,
		Payload: env.Payload,
		CorrID:  tag,
		Size:    env.Size,
		Attempt: attempt,
	}
	// Ensure the consumer-side broker can find fn.
	cb := f.Broker(c.addr.Site)
	d.src, d.dst = q.broker, cb
	if cb.consumerFns == nil {
		cb.consumerFns = make(map[consumerKey]func(*Envelope) error)
	}
	cb.consumerFns[consumerKey{queue: q.name, addr: c.addr}] = c.fn

	qd := &queueDelivery{env: env, consumer: c.addr, attempt: attempt}
	q.inflight[tag] = qd
	f.metrics.Counter("bus.queue.dispatched").Inc()
	// Host cannot reach consumer: the redelivery timer below covers it.
	_ = f.send(d)
	qd.timer = f.eng.Schedule(q.AckTimeout, func() {
		delete(q.inflight, tag)
		f.metrics.Counter("bus.queue.redelivered").Inc()
		q.dispatch(env, attempt+1)
	})
}

// queueAck resolves an inflight delivery on the host broker.
func (b *Broker) queueAck(env *Envelope, ok bool) {
	q, exists := b.queues[env.Topic]
	if !exists {
		return
	}
	qd, found := q.inflight[env.CorrID]
	if !found {
		return
	}
	delete(q.inflight, env.CorrID)
	b.fabric.eng.Cancel(qd.timer)
	if ok {
		b.fabric.metrics.Counter("bus.queue.acked").Inc()
		return
	}
	b.fabric.metrics.Counter("bus.queue.redelivered").Inc()
	q.dispatch(qd.env, qd.attempt+1)
}

// DeadLetters returns the queue's dead-letter list.
func (q *Queue) DeadLetters() []*Envelope { return q.dlq }

// Depth reports backlog + inflight message count.
func (q *Queue) Depth() int { return len(q.backlog) + len(q.inflight) }
