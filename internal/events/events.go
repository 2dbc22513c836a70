// Package events provides the synchronous in-process event bus that wires
// B-Fabric's subsystems together: entity mutations publish events which the
// task engine and audit log consume. Handlers run
// synchronously in subscription order, which keeps system behaviour
// deterministic and transactional side effects ordered.
package events

import (
	"sort"
	"sync"
)

// Event is a single system occurrence, e.g. "annotation.created".
type Event struct {
	// Topic names the event, conventionally "object.verb"
	// (sample.created, annotation.merged, workunit.deleted, ...).
	Topic string
	// Kind is the entity kind the event concerns, if any.
	Kind string
	// ID is the entity identifier the event concerns, if any.
	ID int64
	// Actor is the login of the user who caused the event, if known.
	Actor string
	// Payload carries event-specific data.
	Payload map[string]any
	// Items, when non-nil, marks a coalesced batch event: one publication
	// describing every entity a bulk mutation touched in the same
	// transaction, in mutation order. Topic, Kind, Actor and Tx apply to
	// every item; the event's own ID and Payload are zero. Coalescing is
	// what keeps event fan-out O(1) per commit instead of O(records):
	// each subscriber is invoked once per batch and can take its own
	// locks once. Handlers subscribed to topics that batch publishers use
	// must consult Items before ID/Payload.
	Items []BatchItem
	// Tx carries the open store transaction (*store.Tx) in which the event
	// was raised, when one exists. Handlers that need to write must use it:
	// events are published while the store's writer mutex is held, so
	// starting another write transaction from a handler would deadlock —
	// and a fresh read transaction would see only pre-commit state, since
	// the surrounding transaction has not published its version yet. The
	// field is typed any to keep this package free of store dependencies.
	Tx any
}

// BatchItem is one entity of a coalesced batch event: its identifier and
// the event-specific payload that a per-entity publication would have
// carried.
type BatchItem struct {
	ID      int64
	Payload map[string]any
}

// Handler consumes events. Handlers must not panic; a handler error is
// collected but does not stop delivery to later handlers.
type Handler func(Event) error

// Bus is a synchronous publish/subscribe hub. The zero value is unusable;
// construct with NewBus. Bus is safe for concurrent use.
type Bus struct {
	mu       sync.RWMutex
	nextID   int
	handlers map[string][]subscription // topic -> subscriptions
	all      []subscription            // wildcard subscribers
}

type subscription struct {
	id int
	fn Handler
}

// NewBus returns an empty bus.
func NewBus() *Bus {
	return &Bus{handlers: make(map[string][]subscription)}
}

// Subscribe registers fn for the given topic and returns a subscription id
// usable with Unsubscribe. The empty topic subscribes to all events.
func (b *Bus) Subscribe(topic string, fn Handler) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.nextID++
	sub := subscription{id: b.nextID, fn: fn}
	if topic == "" {
		b.all = append(b.all, sub)
	} else {
		b.handlers[topic] = append(b.handlers[topic], sub)
	}
	return sub.id
}

// Unsubscribe removes the subscription with the given id. Unknown ids are
// ignored.
func (b *Bus) Unsubscribe(id int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for topic, subs := range b.handlers {
		b.handlers[topic] = removeSub(subs, id)
		if len(b.handlers[topic]) == 0 {
			delete(b.handlers, topic)
		}
	}
	b.all = removeSub(b.all, id)
}

func removeSub(subs []subscription, id int) []subscription {
	out := subs[:0]
	for _, s := range subs {
		if s.id != id {
			out = append(out, s)
		}
	}
	return out
}

// Publish delivers the event to every subscriber of its topic and to all
// wildcard subscribers, in subscription order. It returns the errors
// collected from handlers (nil if none failed).
func (b *Bus) Publish(ev Event) []error {
	b.mu.RLock()
	subs := make([]subscription, 0, len(b.handlers[ev.Topic])+len(b.all))
	subs = append(subs, b.handlers[ev.Topic]...)
	subs = append(subs, b.all...)
	b.mu.RUnlock()
	sort.Slice(subs, func(i, j int) bool { return subs[i].id < subs[j].id })
	var errs []error
	for _, s := range subs {
		if err := s.fn(ev); err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}

// Topics returns the sorted list of topics with at least one subscriber.
func (b *Bus) Topics() []string {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make([]string, 0, len(b.handlers))
	for t := range b.handlers {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}
