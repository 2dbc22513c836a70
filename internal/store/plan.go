package store

import (
	"fmt"
	"strings"
)

// This file is the query planner: it turns a Query into a Plan, the
// declarative description of the cheapest access path the engine found.
// Execution lives in query.go; the split keeps "what will run" (Explain)
// and "run it" (Tx.Query) on exactly the same code path — Explain returns
// the very Plan the executor follows.

// Access enumerates the access paths the planner can choose.
type Access uint8

const (
	// AccessPoint fetches candidate rows directly by id (Eq/In on "id").
	AccessPoint Access = iota
	// AccessUnique resolves one Eq predicate through a unique index: at
	// most one row per key.
	AccessUnique
	// AccessIndex drives the query from a secondary index's sorted
	// postings, chosen as the most selective indexed predicate; the
	// remaining predicates are pushed into the iterator as residuals.
	AccessIndex
	// AccessScan walks the table in id order between the bounds implied
	// by id-range predicates (the whole table when there are none).
	AccessScan
)

// String returns the access path's name as it appears in Explain output.
func (a Access) String() string {
	switch a {
	case AccessPoint:
		return "point"
	case AccessUnique:
		return "unique"
	case AccessIndex:
		return "index"
	case AccessScan:
		return "scan"
	default:
		return fmt.Sprintf("Access(%d)", uint8(a))
	}
}

// Plan describes how the engine will (or did) execute a query. It is
// returned by Tx.Explain and carried by the Rows iterator, so the plan a
// caller inspects is exactly the plan the executor follows.
type Plan struct {
	// Table is the queried table.
	Table string
	// Access is the chosen access path.
	Access Access
	// Field is the field driving the access path: the unique or secondary
	// index field, or "id" for point access. Empty for scans.
	Field string
	// Keys is the number of index/point keys the driver resolves (1 for
	// Eq, len(Values) for In).
	Keys int
	// EstRows is the planner's row estimate for the driving path, read
	// from the committed index postings (or table count for scans) at
	// plan time. It is the cost that won the path the plan describes.
	EstRows int
	// Residual lists the fields of predicates the driver cannot answer;
	// they are evaluated per row inside the iterator.
	Residual []string
	// ScanFrom/ScanTo are the id bounds of an AccessScan, 0 = unbounded.
	ScanFrom, ScanTo int64
	// Sorted is true when the result cannot stream in structural id
	// order and must be materialized and sorted by OrderBy instead.
	Sorted bool
	// OrderBy, Desc and Limit echo the query.
	OrderBy string
	Desc    bool
	Limit   int
	// Agg names the aggregate strategy for aggregate queries —
	// AggStrategyMaintained, AggStrategyPostings or AggStrategyScanFold —
	// and is empty for row queries.
	Agg string
	// GroupField echoes the aggregate's GroupBy field.
	GroupField string
}

// String renders the plan in the compact one-line form used by Explain
// output and the portal's explain mode, e.g.
//
//	sample: index(project) keys=1 est=37 residual=[species] order=id limit=50
//
// Aggregate plans lead with their strategy instead of the access path:
//
//	workunit: agg=count(postings) by=state via index(state) est=1543
func (p Plan) String() string {
	var b strings.Builder
	if p.Agg != "" {
		fmt.Fprintf(&b, "%s: agg=%s", p.Table, p.Agg)
		if p.GroupField != "" {
			fmt.Fprintf(&b, " by=%s", p.GroupField)
		}
		if p.Agg != AggStrategyMaintained {
			fmt.Fprintf(&b, " via %s", p.Access)
			if p.Field != "" {
				fmt.Fprintf(&b, "(%s)", p.Field)
			}
		}
	} else {
		fmt.Fprintf(&b, "%s: %s", p.Table, p.Access)
		if p.Field != "" {
			fmt.Fprintf(&b, "(%s)", p.Field)
		}
	}
	if p.Access == AccessScan && (p.ScanFrom != 0 || p.ScanTo != 0) {
		from, to := "1", "∞"
		if p.ScanFrom != 0 {
			from = fmt.Sprintf("%d", p.ScanFrom)
		}
		if p.ScanTo != 0 {
			to = fmt.Sprintf("%d", p.ScanTo)
		}
		fmt.Fprintf(&b, " ids=[%s,%s]", from, to)
	}
	if p.Keys > 1 {
		fmt.Fprintf(&b, " keys=%d", p.Keys)
	}
	fmt.Fprintf(&b, " est=%d", p.EstRows)
	if len(p.Residual) > 0 {
		fmt.Fprintf(&b, " residual=[%s]", strings.Join(p.Residual, ","))
	}
	if p.Agg != "" {
		// Ordering, sorting and limits do not apply to aggregates.
		return b.String()
	}
	order := p.OrderBy
	if order == "" {
		order = IDField
	}
	if p.Sorted {
		fmt.Fprintf(&b, " sort=%s", order)
	} else {
		fmt.Fprintf(&b, " order=%s", order)
	}
	if p.Desc {
		b.WriteString(" desc")
	}
	if p.Limit > 0 {
		fmt.Fprintf(&b, " limit=%d", p.Limit)
	}
	return b.String()
}

// plannedQuery is the executable form of a query: the winning plan plus
// the pre-resolved driver keys and compiled residual predicates.
type plannedQuery struct {
	plan Plan
	// driver is the index of q.Where the access path answers, or -1 for
	// scans.
	driver int
	// keys holds the canonical index keys (AccessUnique/AccessIndex) or
	// record ids (AccessPoint) the driver resolves.
	keys []indexKey
	ids  []int64
	// residuals are the compiled per-row predicates.
	residuals []compiledPred
}

// plan validates q against the pinned table and picks the cheapest access
// path:
//
//  1. Eq/In on "id" — direct point access, cost = number of ids;
//  2. Eq on a unique-indexed field — at most one row;
//  3. Eq/In on any secondary index — cost = committed postings length
//     (summed over In keys); the cheapest such predicate drives, all
//     others become residuals;
//  4. otherwise an ordered id scan bounded by Range("id") predicates.
//
// Estimates read the committed index only — the transaction overlay can
// shift true counts, but never the complexity class of the choice.
func (tx *Tx) plan(t *table, q Query) (*plannedQuery, error) {
	if q.Limit < 0 {
		return nil, fmt.Errorf("store: negative limit %d: %w", q.Limit, ErrBadQuery)
	}
	if q.Cursor < 0 {
		return nil, fmt.Errorf("store: negative cursor %d: %w", q.Cursor, ErrBadQuery)
	}
	orderBy := q.OrderBy
	if orderBy == "" {
		orderBy = IDField
	}
	sorted := orderBy != IDField
	if sorted && q.Cursor != 0 {
		// A keyset cursor is an id watermark; it only composes with id
		// ordering. Sorted results would need a (value, id) cursor pair,
		// which the engine does not grow until something needs it.
		return nil, fmt.Errorf("store: cursor requires id ordering, not order by %q: %w", q.OrderBy, ErrBadQuery)
	}

	compiled := make([]compiledPred, len(q.Where))
	for i, p := range q.Where {
		cp, err := compilePred(q.Table, p)
		if err != nil {
			return nil, err
		}
		compiled[i] = cp
	}

	pq := &plannedQuery{
		plan: Plan{
			Table:   q.Table,
			Access:  AccessScan,
			EstRows: t.count,
			OrderBy: orderBy,
			Desc:    q.Desc,
			Limit:   q.Limit,
			Sorted:  sorted,
		},
		driver: -1,
	}

	// Pick the cheapest driver among point/unique/index candidates.
	best := -1
	bestCost := 0
	for i, cp := range compiled {
		p := q.Where[i]
		if p.Op != OpEq && p.Op != OpIn {
			continue
		}
		var cost int
		switch {
		case p.Field == IDField:
			cost = len(cp.ids)
		default:
			ix, ok := t.fieldIndex(p.Field)
			if !ok {
				continue
			}
			if ix.unique && p.Op == OpEq {
				cost = 1
			} else {
				for _, key := range cp.keys {
					cost += len(ix.postings(key))
				}
			}
		}
		if best == -1 || cost < bestCost {
			best, bestCost = i, cost
		}
	}

	if best >= 0 {
		p := q.Where[best]
		cp := compiled[best]
		pq.driver = best
		pq.plan.Field = p.Field
		pq.plan.EstRows = bestCost
		switch {
		case p.Field == IDField:
			pq.plan.Access = AccessPoint
			pq.plan.Keys = len(cp.ids)
			pq.ids = cp.ids
		case t.indexes[p.Field].unique && p.Op == OpEq:
			pq.plan.Access = AccessUnique
			pq.plan.Keys = 1
			pq.keys = cp.keys
		default:
			pq.plan.Access = AccessIndex
			pq.plan.Keys = len(cp.keys)
			pq.keys = cp.keys
		}
	} else {
		// No indexable equality: scan, tightening the id window with any
		// Range("id") predicates (they become part of the access path, not
		// residuals).
		for i, p := range q.Where {
			if p.Field != IDField || p.Op != OpRange {
				continue
			}
			lo, hi, err := idRangeBounds(p)
			if err != nil {
				return nil, err
			}
			if lo > pq.plan.ScanFrom {
				pq.plan.ScanFrom = lo
			}
			if hi != 0 && (pq.plan.ScanTo == 0 || hi < pq.plan.ScanTo) {
				pq.plan.ScanTo = hi
			}
			compiled[i].consumed = true
		}
		if pq.plan.ScanFrom != 0 || pq.plan.ScanTo != 0 {
			hi := pq.plan.ScanTo
			if hi == 0 || hi > t.nextID-1 {
				hi = t.nextID - 1
			}
			if est := int(hi - pq.plan.ScanFrom + 1); est >= 0 && est < pq.plan.EstRows {
				pq.plan.EstRows = est
			}
		}
	}

	for i, cp := range compiled {
		if i == pq.driver || cp.consumed {
			continue
		}
		pq.residuals = append(pq.residuals, cp)
		pq.plan.Residual = append(pq.plan.Residual, q.Where[i].Field)
	}
	return pq, nil
}

// idRangeBounds converts a Range("id") predicate into inclusive scan
// bounds (0 = unbounded).
func idRangeBounds(p Pred) (lo, hi int64, err error) {
	bound := func(v any) (int64, bool, error) {
		if v == nil {
			return 0, false, nil
		}
		n, ok := v.(int64)
		if !ok {
			return 0, false, fmt.Errorf("store: id range bound %T: %w", v, ErrBadQuery)
		}
		return n, true, nil
	}
	if n, ok, berr := bound(p.Min); berr != nil {
		return 0, 0, berr
	} else if ok {
		lo = n
	}
	if n, ok, berr := bound(p.Max); berr != nil {
		return 0, 0, berr
	} else if ok {
		hi = n
		if hi < 1 {
			// An explicit upper bound below the id space: empty window.
			// Encode as an impossible range the executor recognizes.
			lo, hi = 1, -1
			return lo, hi, nil
		}
	}
	return lo, hi, nil
}
