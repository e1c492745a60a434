package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"privateiye/internal/clinical"
	"privateiye/internal/mediator"
	"privateiye/internal/piql"
	"privateiye/internal/shard"
	"privateiye/internal/source"
	"privateiye/internal/xmltree"
)

// The paper's Figure 1 as a query pair: per-test statistics (1a), then
// per-HMO means (1b). Each is authorized alone; together they are the
// interval-inference attack the release ledger must refuse.
const (
	perTestQuery = "FOR //compliance/row GROUP BY //test RETURN AVG(//rate) AS avg_rate, STDDEV(//rate) AS sd_rate, COUNT(*) AS n PURPOSE research MAXLOSS 0.9"
	perHMOQuery  = "FOR //compliance/row GROUP BY //hmo RETURN AVG(//rate) AS avg_rate PURPOSE research MAXLOSS 0.9"
	recordsQuery = "FOR //patients/row WHERE //age > %d RETURN //age, //sex, //zip PURPOSE research"
	// ledgerRefusal is the wire wording of a ledger combination refusal.
	ledgerRefusal = "combined with your earlier"
)

// clients is the number of closed-loop load generators: one per core of
// the 2-core machine the benchmark was sized on. An open loop is not
// used: a ledger solve stalls its caller for about a second, so an open
// loop at any useful rate would need tens of connections.
const clients = 2

// result is one finished request of an op.
type result struct {
	kind string
	lat  time.Duration
	err  error // transport error, unexpected status or failed check
}

// workload is one traffic mix over one fleet shape.
type workload struct {
	name  string
	why   string
	shape fleetShape
	// rateKind results are the ops cpu_ms_per_op (and the reported
	// ops_per_s) count; latKind results give the latency percentiles.
	rateKind, latKind string
	// opsBudget, when set, caps the timed phase at this many ops per
	// second of --seconds, so that runs of a faster and a slower commit
	// run the same ops where per-op cost depends on how many ran before.
	opsBudget float64
	// prepare computes what the checks compare against, once per run and
	// outside set-up timing.
	prepare func(r *runner) error
	// warm is set-up work beyond the one warm-up op per client.
	warm func(r *runner, f *fleet) error
	// op runs client c's next op.
	op func(r *runner, f *fleet, c int) []result
}

var workloads = []*workload{
	{
		name:     "agg-fresh",
		why:      "Figure 1(a) from a new requester per op: fixed per-call cost, plan-cache misses, two WAL appends per op",
		shape:    fleetShape{compliance: true},
		rateKind: "query", latKind: "query",
		// Every op grows the shards' history and ledger, which stay in
		// memory and are snapshotted whole every 256 WAL appends. The
		// budget sits about two fifths below this op's rate on the 2-core
		// machine the benchmark was sized on, so a host slowed by stolen
		// CPU time still runs every op of it.
		opsBudget: 600,
		op: func(r *runner, f *fleet, c int) []result {
			id := r.requester("agg", c)
			return []result{r.do("query", id, func(ctx context.Context) error {
				status, body, err := f.post(ctx, perTestQuery, id)
				if err != nil {
					return err
				}
				return r.checkFigure1a(status, body)
			})}
		},
	},
	{
		name:     "records-wide",
		why:      "row-level answers of ~300 KB from 3x2000 patients: cost scales with bytes encoded, sent and deduplicated",
		shape:    fleetShape{patients: 2000},
		rateKind: "query", latKind: "query",
		prepare: prepareRecords,
		op: func(r *runner, f *fleet, c int) []result {
			n := r.nextSeq(c)
			// Each client cycles through every threshold before moving to
			// its next analyst, so every run sees the same cost mix; the
			// clients' analysts are disjoint, so concurrent ops never
			// share a requester.
			k := r.thresholds[n%len(r.thresholds)]
			id := fmt.Sprintf("analyst-%d", c*analystsPerClient+(n/len(r.thresholds))%analystsPerClient)
			return []result{r.do("query", id, func(ctx context.Context) error {
				status, body, err := f.post(ctx, fmt.Sprintf(recordsQuery, k), id)
				if err != nil {
					return err
				}
				return r.checkRecords(k, status, body)
			})}
		},
	},
	{
		// Attackers and bystanders each alternate between the two
		// shards, so every seed puts the same share of bystanders behind
		// a solve.
		name:     "ledger-contention",
		why:      "Figure 1 attack pairs whose refusal solves an NLP under the shard's ledger lock, next to bystander releases",
		shape:    fleetShape{compliance: true},
		rateKind: "refusal", latKind: "refusal",
		op: func(r *runner, f *fleet, c int) []result {
			if c != 0 {
				id := r.placedRequester("bystander", c)
				return []result{r.do("release", id, func(ctx context.Context) error {
					status, body, err := f.post(ctx, perTestQuery, id)
					if err != nil {
						return err
					}
					return r.checkFigure1a(status, body)
				})}
			}
			id := r.placedRequester("attacker", c)
			first := r.do("attack", id, func(ctx context.Context) error {
				status, body, err := f.post(ctx, perTestQuery, id)
				if err != nil {
					return err
				}
				return r.checkFigure1a(status, body)
			})
			second := r.do("refusal", id, func(ctx context.Context) error {
				status, body, err := f.post(ctx, perHMOQuery, id)
				if err != nil {
					return err
				}
				if status != http.StatusForbidden || !strings.Contains(string(body), ledgerRefusal) {
					return fmt.Errorf("figure 1(b) after 1(a): want 403 ledger refusal, got %d %.120q", status, body)
				}
				return nil
			})
			return []result{first, second}
		},
	},
	{
		name:     "psi-overlap",
		why:      "private set intersection over 2000-row columns: p256 exponentiation and element envelopes, no router, ledger or WAL",
		shape:    fleetShape{patients: 2000},
		rateKind: "overlap", latKind: "overlap",
		prepare: preparePSI,
		warm: func(r *runner, f *fleet) error {
			// One cold overlap per (source pair, field) caches every
			// source's own blinds.
			for _, cb := range psiCombos {
				got, err := f.shards[0].Overlap(context.Background(), sourceNames[cb.a], sourceNames[cb.b], cb.field)
				if err != nil {
					return err
				}
				if want := r.overlaps[cb]; got != want {
					return fmt.Errorf("cold overlap %v: got %d, want %d", cb, got, want)
				}
			}
			return nil
		},
		op: func(r *runner, f *fleet, c int) []result {
			n := r.nextSeq(c)
			cb := psiCombos[(clients*n+c)%len(psiCombos)]
			id := fmt.Sprintf("psi-c%d-%d", c, n)
			med := f.shards[c%len(f.shards)]
			return []result{r.do("overlap", id, func(ctx context.Context) error {
				ctx = withOp(ctx, id)
				start := r.probe.now()
				got, err := med.Overlap(ctx, sourceNames[cb.a], sourceNames[cb.b], cb.field)
				if r.probe.on.Load() {
					r.probe.record(span{layer: "mediator.overlap", id: id, start: start, end: r.probe.now()})
				}
				if err != nil {
					return err
				}
				if r.tamper {
					got++
				}
				if want := r.overlaps[cb]; got != want {
					return fmt.Errorf("overlap %v: got %d, want %d", cb, got, want)
				}
				return nil
			})}
		},
	},
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// runner carries one run's inputs and reference answers.
type runner struct {
	w      *workload
	seed   uint64
	probe  *probe
	tamper bool // corrupt answers before checking them (the checker's own test)

	// Per-client counters; each is touched by its own client only.
	seq    [clients]int
	placed [clients]int
	ring   *shard.Ring // the tier's placement, for placedRequester

	thresholds []int
	records    map[int]string // canonical reference answer per threshold
	overlaps   map[psiCombo]int
}

func (r *runner) nextSeq(c int) int {
	n := r.seq[c]
	r.seq[c]++
	return n
}

// requester names a requester never seen before in this run.
func (r *runner) requester(prefix string, c int) string {
	return fmt.Sprintf("%s-%d-c%d-%d", prefix, r.seed, c, r.nextSeq(c))
}

// placedRequester names a new requester that the ring places on the
// client's next shard in turn.
func (r *runner) placedRequester(prefix string, c int) string {
	want := shardNames[r.placed[c]%len(shardNames)]
	r.placed[c]++
	for {
		id := r.requester(prefix, c)
		if owner, err := r.ring.Lookup(id); err == nil && owner == want {
			return id
		}
	}
}

// do times one request from send to the checked answer.
func (r *runner) do(kind, id string, fn func(ctx context.Context) error) result {
	start := r.probe.now()
	t0 := time.Now()
	err := fn(context.Background())
	res := result{kind: kind, lat: time.Since(t0), err: err}
	if r.probe.on.Load() {
		r.probe.record(span{layer: "op", id: id, start: start, end: r.probe.now()})
	}
	return res
}

// decodeAnswer parses a 200 answer from the router.
func decodeAnswer(status int, body []byte) (*mediator.Integrated, error) {
	if status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.160q", status, body)
	}
	n, err := xmltree.Parse(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	return mediator.IntegratedFromNode(n)
}

func column(res *piql.Result, name string) (int, error) {
	for i, c := range res.Columns {
		if c == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("answer has no column %q (have %v)", name, res.Columns)
}

// checkFigure1a checks a Figure 1(a) answer: one row per test, avg_rate
// equal to the published mean to one decimal, and n = 12 (four HMOs at
// each of the three sources).
func (r *runner) checkFigure1a(status int, body []byte) error {
	if r.tamper {
		body = bytes.Replace(body, []byte("<avg_rate>"), []byte("<avg_rate>1"), 1)
	}
	in, err := decodeAnswer(status, body)
	if err != nil {
		return err
	}
	res := in.Result
	if len(res.Rows) != len(clinical.Tests) {
		return fmt.Errorf("figure 1(a): %d rows, want %d", len(res.Rows), len(clinical.Tests))
	}
	ti, err := column(res, "test")
	if err != nil {
		return err
	}
	ai, err := column(res, "avg_rate")
	if err != nil {
		return err
	}
	ni, err := column(res, "n")
	if err != nil {
		return err
	}
	pub := clinical.Figure1Published()
	seen := map[string]bool{}
	for _, row := range res.Rows {
		t := -1
		for i, name := range clinical.Tests {
			if row[ti] == name {
				t = i
			}
		}
		if t < 0 || seen[row[ti]] {
			return fmt.Errorf("figure 1(a): unexpected test %q", row[ti])
		}
		seen[row[ti]] = true
		avg, err := strconv.ParseFloat(row[ai], 64)
		if err != nil {
			return fmt.Errorf("figure 1(a): avg_rate %q: %w", row[ai], err)
		}
		if got, want := strconv.FormatFloat(avg, 'f', 1, 64), strconv.FormatFloat(pub.TestMean[t], 'f', 1, 64); got != want {
			return fmt.Errorf("figure 1(a): %s avg_rate %s, want %s", row[ti], got, want)
		}
		if n, err := strconv.ParseFloat(row[ni], 64); err != nil || n != 12 {
			return fmt.Errorf("figure 1(a): %s n = %q, want 12", row[ti], row[ni])
		}
	}
	return nil
}

const (
	numThresholds     = 16
	analystsPerClient = 4
)

// prepareRecords draws the 16 age thresholds, one in each 2-year band
// from 20 to 51, so every seed asks for the same spread of answer
// sizes, and computes each answer on a reference mediator over
// in-process sources seeded identically to the fleet's.
func prepareRecords(r *runner) error {
	rng := rand.New(rand.NewSource(int64(r.seed)))
	r.thresholds = make([]int, numThresholds)
	for i := range r.thresholds {
		r.thresholds[i] = 20 + 2*i + rng.Intn(2)
	}
	rng.Shuffle(len(r.thresholds), func(i, j int) {
		r.thresholds[i], r.thresholds[j] = r.thresholds[j], r.thresholds[i]
	})
	var eps []source.Endpoint
	for i := range sourceNames {
		local, _, err := newSource(i, r.w.shape, r.seed, nil)
		if err != nil {
			return err
		}
		eps = append(eps, local)
	}
	ref, err := mediator.New(mediator.Config{
		Endpoints: eps, LinkageSalt: []byte(linkageSalt), PlanCache: 256,
		MaxDisclosure: maxDisclosure, LedgerTolerance: ledgerTolerance,
	})
	if err != nil {
		return fmt.Errorf("reference mediator: %w", err)
	}
	defer ref.Close()
	r.records = map[int]string{}
	for _, k := range r.thresholds {
		in, err := ref.Query(fmt.Sprintf(recordsQuery, k), "reference")
		if err != nil {
			return fmt.Errorf("reference answer for age > %d: %w", k, err)
		}
		if len(in.Denied) > 0 {
			return fmt.Errorf("reference answer for age > %d: denied by %v", k, in.Denied)
		}
		r.records[k] = canonical(in.Result)
	}
	return nil
}

// canonical renders a result independent of row order.
func canonical(res *piql.Result) string {
	rows := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		rows[i] = strings.Join(row, "\x1f")
	}
	sort.Strings(rows)
	return strings.Join(res.Columns, "\x1f") + "\n" + strings.Join(rows, "\n")
}

// checkRecords checks a records-wide answer against the reference and
// checks every age exceeds k.
func (r *runner) checkRecords(k, status int, body []byte) error {
	in, err := decodeAnswer(status, body)
	if err != nil {
		return err
	}
	if len(in.Denied) > 0 {
		return fmt.Errorf("age > %d: denied by %v", k, in.Denied)
	}
	ai, err := column(in.Result, "age")
	if err != nil {
		return err
	}
	for _, row := range in.Result.Rows {
		if !ageAbove(row[ai], k) {
			return fmt.Errorf("age > %d: answer holds age %q", k, row[ai])
		}
	}
	if canonical(in.Result) != r.records[k] {
		return fmt.Errorf("age > %d: answer (%d rows) differs from the reference", k, len(in.Result.Rows))
	}
	return nil
}

// ageAbove reports whether an age, exact ("42") or generalized by the
// sources' default mitigation ("40-49"), can exceed k.
func ageAbove(age string, k int) bool {
	if _, hi, ok := strings.Cut(age, "-"); ok {
		age = hi
	}
	v, err := strconv.Atoi(age)
	return err == nil && v > k
}

// psiCombo is one (source pair, field) an overlap runs over.
type psiCombo struct {
	a, b  int
	field string
}

var psiCombos = []psiCombo{
	{0, 1, "name"}, {0, 2, "zip"}, {1, 2, "name"},
	{0, 1, "zip"}, {0, 2, "name"}, {1, 2, "zip"},
}

// preparePSI counts each combo's plaintext overlap: the distinct values
// the two generated columns share.
func preparePSI(r *runner) error {
	cols := make([]map[string]map[string]bool, len(sourceNames))
	for i := range sourceNames {
		_, tab, err := newSource(i, r.w.shape, r.seed, nil)
		if err != nil {
			return err
		}
		cols[i] = map[string]map[string]bool{}
		for _, field := range []string{"name", "zip"} {
			idx := tab.Schema().Index(field)
			if idx < 0 {
				return errors.New("patients table has no " + field + " column")
			}
			set := map[string]bool{}
			for _, row := range tab.Rows() {
				set[row[idx].String()] = true
			}
			cols[i][field] = set
		}
	}
	r.overlaps = map[psiCombo]int{}
	for _, cb := range psiCombos {
		n := 0
		for v := range cols[cb.a][cb.field] {
			if cols[cb.b][cb.field][v] {
				n++
			}
		}
		r.overlaps[cb] = n
	}
	return nil
}
