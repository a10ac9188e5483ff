package replica

import (
	"fmt"

	"kvcsd/internal/obs"
	"kvcsd/internal/sim"
	"kvcsd/internal/wire"
)

// route is the cluster's view of one shard: who owns it (as last flipped by
// an applied config record) and which node was last seen leading it.
type route struct {
	members []int
	epoch   uint64
	leader  int // hint; -1 unknown
}

// node is one replica host. A node that is !running drops every frame and
// rejects every client call until Restart.
type node struct {
	c       *Cluster
	id      int
	running bool
	groups  map[int]*group
}

func (n *node) group(shard int) *group { return n.groups[shard] }

// Cluster is a set of replica nodes hosting per-shard consensus groups over a
// simulated network. All methods must be called from simulation processes of
// the Env the cluster was built on.
type Cluster struct {
	env     *Env
	opts    Options
	nodes   []*node
	routes  []*route
	net     *transport
	rng     *sim.RNG
	msgID   uint64
	stopped bool

	// calls tracks in-flight migrate RPCs awaiting their ack.
	calls map[uint64]*call

	elections int64
	snapshots int64
	// The append stream's ledger: entries carried by AppendEntries frames,
	// entries followers appended from them, and catch-ups started. A healthy
	// group sends each entry to each follower once, so sent / appended is 1.
	entriesSent     int64
	entriesAppended int64
	probes          int64

	gauges *gauges
}

// Env is re-exported to keep the constructor signature obvious.
type Env = sim.Env

// New builds a cluster: Nodes hosts, Shards groups, each group placed on
// ReplicationFactor consecutive nodes. Tickers start immediately, so the
// first elections begin as soon as the simulation runs.
func New(env *Env, opts Options) *Cluster {
	opts.defaults()
	c := &Cluster{
		env:   env,
		opts:  opts,
		rng:   sim.NewRNG(opts.Seed).Fork(0x5245504C), // "REPL"
		calls: map[uint64]*call{},
	}
	c.net = newTransport(c, opts.Nodes)
	for i := 0; i < opts.Nodes; i++ {
		c.nodes = append(c.nodes, &node{c: c, id: i, running: true, groups: map[int]*group{}})
	}
	newSM := opts.NewSM
	if newSM == nil {
		newSM = func(int, int) StateMachine { return NewMemKV() }
	}
	for s := 0; s < opts.Shards; s++ {
		var members []int
		if opts.Members != nil {
			members = append(members, opts.Members(s)...)
		} else {
			for r := 0; r < opts.ReplicationFactor; r++ {
				members = append(members, (s+r)%opts.Nodes)
			}
		}
		c.routes = append(c.routes, &route{members: members, epoch: 1, leader: -1})
		// Every node hosts a group shell for every shard; only members
		// participate, but this lets resharding stream state to any node.
		for i := 0; i < opts.Nodes; i++ {
			c.nodes[i].groups[s] = newGroup(c, s, i, members, newSM(s, i))
		}
	}
	if opts.Registry != nil {
		c.gauges = newGauges(opts.Registry, opts.GaugePrefix, opts.Shards)
	}
	for i := range c.nodes {
		c.startTicker(i)
	}
	return c
}

func (c *Cluster) startTicker(id int) {
	n := c.nodes[id]
	c.env.Go(fmt.Sprintf("replica:tick:%d", id), func(p *sim.Proc) {
		for !c.stopped {
			p.Sleep(tickInterval)
			if c.stopped {
				return
			}
			if !n.running {
				continue
			}
			for s := 0; s < c.opts.Shards; s++ {
				n.groups[s].tick(p)
			}
		}
	})
}

func (c *Cluster) nextMsgID() uint64 {
	c.msgID++
	return c.msgID
}

// Stop shuts the cluster down: tickers exit on their next tick, in-flight
// frames are dropped, delivery procs return, and every waiting client unblocks
// with ErrStopped. Idempotent. After Stop the env can drain to completion
// without deadlock.
func (c *Cluster) Stop() {
	if c.stopped {
		return
	}
	c.stopped = true
	c.net.procs.Release()
	for _, n := range c.nodes {
		for _, g := range n.groups {
			g.failPending(ErrStopped, ErrStopped)
		}
	}
	for id, cl := range c.calls {
		cl.err = ErrStopped
		cl.ev.Signal()
		delete(c.calls, id)
	}
}

// --- fault injection --------------------------------------------------------

// Crash power-cuts a node: volatile consensus state is lost, persistent state
// (term, vote, log, snapshot) survives for Restart.
func (c *Cluster) Crash(id int) {
	n := c.nodes[id]
	if !n.running {
		return
	}
	n.running = false
	for s := 0; s < c.opts.Shards; s++ {
		g := n.groups[s]
		wasLeader := g.role == roleLeader
		g.crash()
		if wasLeader {
			c.noteStepDown(s, id)
		}
	}
}

// Restart brings a crashed node back: state machines restore from their
// snapshots and the logs replay as commit indexes re-advance.
func (c *Cluster) Restart(p *sim.Proc, id int) {
	n := c.nodes[id]
	if n.running {
		return
	}
	for s := 0; s < c.opts.Shards; s++ {
		n.groups[s].restart(p)
	}
	n.running = true
}

// Partition severs the link between two nodes in both directions.
func (c *Cluster) Partition(a, b int) { c.net.sever(a, b) }

// DropNext loses the next n frames node from sends to node to: a fault hook
// for tests, finer than Partition — one AppendEntries gone from the middle of
// a stream, one ack. A second call replaces the first.
func (c *Cluster) DropNext(from, to, n int) {
	c.net.lose = func(f, t int) bool {
		if f != from || t != to || n <= 0 {
			return false
		}
		n--
		return true
	}
}

// Isolate severs every link touching the node.
func (c *Cluster) Isolate(id int) {
	for i := range c.nodes {
		if i != id {
			c.net.sever(id, i)
		}
	}
}

// Heal removes all partitions.
func (c *Cluster) Heal() { c.net.heal() }

// --- routing and introspection ----------------------------------------------

// routeApplied is called when a config entry is applied on any node: the
// highest epoch wins and atomically flips ownership for client routing.
func (c *Cluster) routeApplied(p *sim.Proc, shard int, e *wire.ReplicaEntry) {
	rt := c.routes[shard]
	if e.Epoch <= rt.epoch {
		return
	}
	rt.epoch = e.Epoch
	rt.members = rt.members[:0]
	for _, m := range e.Members {
		rt.members = append(rt.members, int(m))
	}
	if !containsInt(rt.members, rt.leader) {
		rt.leader = -1
	}
	if c.gauges != nil {
		c.gauges.epoch[shard].Set(float64(e.Epoch))
	}
}

// Leader returns the routing layer's current leader hint for a shard (-1
// when no leader has been observed since the last failover).
func (c *Cluster) Leader(shard int) int { return c.routes[shard].leader }

// Members returns the routing layer's current member set for a shard.
func (c *Cluster) Members(shard int) []int {
	return append([]int(nil), c.routes[shard].members...)
}

// Epoch returns the shard's current config epoch.
func (c *Cluster) Epoch(shard int) uint64 { return c.routes[shard].epoch }

// WaitLeader blocks until some node leads the shard with a committed entry
// of its own term (i.e. it can serve reads), returning its ID.
func (c *Cluster) WaitLeader(p *sim.Proc, shard int) (int, error) {
	for try := 0; try < 10000; try++ {
		if c.stopped {
			return -1, ErrStopped
		}
		for _, id := range c.routes[shard].members {
			g := c.nodes[id].groups[shard]
			if c.nodes[id].running && g.role == roleLeader && g.termAt(g.commit) == g.term {
				return id, nil
			}
		}
		p.Sleep(tickInterval)
	}
	return -1, ErrNoLeader
}

// RouteTable renders the cluster's shard-ownership view as wire ring entries
// for Stats reports and inspection tools.
func (c *Cluster) RouteTable(keyspace string) []wire.RingEntry {
	out := make([]wire.RingEntry, 0, len(c.routes))
	for s, rt := range c.routes {
		out = append(out, wire.RingEntry{
			Keyspace: keyspace,
			Shard:    uint32(s),
			Epoch:    rt.epoch,
			Leader:   int32(rt.leader),
			Members:  memberList(rt.members),
		})
	}
	return out
}

// FramesSent, FramesDropped, BytesSent expose transport counters.
func (c *Cluster) FramesSent() int64    { return c.net.framesSent }
func (c *Cluster) FramesDropped() int64 { return c.net.framesDropped }
func (c *Cluster) BytesSent() int64     { return c.net.bytesSent }

// Elections returns the number of elections started across all shards.
func (c *Cluster) Elections() int64 { return c.elections }

// --- gauge plumbing ---------------------------------------------------------

type gauges struct {
	leader     []*sim.Gauge
	term       []*sim.Gauge
	epoch      []*sim.Gauge
	commit     []*sim.Gauge
	elections  *sim.Gauge
	snapshots  *sim.Gauge
	stepdowns  *sim.Gauge
	migrations *sim.Gauge

	framesSent      *sim.Gauge
	bytesSent       *sim.Gauge
	entriesSent     *sim.Gauge
	entriesAppended *sim.Gauge
	probes          *sim.Gauge
}

func newGauges(reg *obs.Registry, prefix string, shards int) *gauges {
	g := &gauges{
		elections:  reg.Gauge(prefix + "replica.elections_total"),
		snapshots:  reg.Gauge(prefix + "replica.snapshots_total"),
		stepdowns:  reg.Gauge(prefix + "replica.stepdowns_total"),
		migrations: reg.Gauge(prefix + "replica.migrations_total"),

		framesSent:      reg.Gauge(prefix + "replica.frames_sent_total"),
		bytesSent:       reg.Gauge(prefix + "replica.bytes_sent_total"),
		entriesSent:     reg.Gauge(prefix + "replica.entries_sent_total"),
		entriesAppended: reg.Gauge(prefix + "replica.entries_appended_total"),
		probes:          reg.Gauge(prefix + "replica.probes_total"),
	}
	for s := 0; s < shards; s++ {
		lg := reg.Gauge(fmt.Sprintf("%sreplica.shard%d.leader", prefix, s))
		lg.Set(-1)
		g.leader = append(g.leader, lg)
		g.term = append(g.term, reg.Gauge(fmt.Sprintf("%sreplica.shard%d.term", prefix, s)))
		eg := reg.Gauge(fmt.Sprintf("%sreplica.shard%d.epoch", prefix, s))
		eg.Set(1)
		g.epoch = append(g.epoch, eg)
		g.commit = append(g.commit, reg.Gauge(fmt.Sprintf("%sreplica.shard%d.commit", prefix, s)))
	}
	return g
}

func (c *Cluster) countElection(shard int) {
	c.elections++
	if c.gauges != nil {
		c.gauges.elections.Add(1)
	}
}

func (c *Cluster) countSnapshot(shard int) {
	c.snapshots++
	if c.gauges != nil {
		c.gauges.snapshots.Add(1)
	}
}

func (c *Cluster) countEntriesSent(n int) {
	if n == 0 {
		return
	}
	c.entriesSent += int64(n)
	if c.gauges != nil {
		c.gauges.entriesSent.Set(float64(c.entriesSent))
	}
}

func (c *Cluster) countEntryAppended() {
	c.entriesAppended++
	if c.gauges != nil {
		c.gauges.entriesAppended.Set(float64(c.entriesAppended))
	}
}

func (c *Cluster) countProbe() {
	c.probes++
	if c.gauges != nil {
		c.gauges.probes.Set(float64(c.probes))
	}
}

func (c *Cluster) noteLeader(shard, id int, term uint64) {
	c.routes[shard].leader = id
	if c.gauges != nil {
		c.gauges.leader[shard].Set(float64(id))
		c.gauges.term[shard].Set(float64(term))
	}
}

func (c *Cluster) noteStepDown(shard, id int) {
	if c.routes[shard].leader == id {
		c.routes[shard].leader = -1
		if c.gauges != nil {
			c.gauges.leader[shard].Set(-1)
		}
	}
	if c.gauges != nil {
		c.gauges.stepdowns.Add(1)
	}
}

func (c *Cluster) noteCommit(shard, id int) {
	if c.gauges != nil && c.routes[shard].leader == id {
		g := c.nodes[id].groups[shard]
		c.gauges.commit[shard].Set(float64(g.commit))
	}
}

// --- client sessions --------------------------------------------------------

// Session is a client identity with its own sequence counter. Operations
// retry across leader changes; a retry reuses the operation's sequence
// number, so the session dedup table makes the retry exactly-once.
type Session struct {
	c       *Cluster
	id      uint64
	seq     uint64
	rrNext  int
	rng     *sim.RNG
	backoff sim.Duration
}

// Client returns a session for the given non-zero client identity.
func (c *Cluster) Client(id uint64) *Session {
	if id == 0 {
		panic("replica: client id must be non-zero")
	}
	return &Session{
		c:       c,
		id:      id,
		rng:     c.rng.Fork(int64(id)),
		backoff: heartbeatInterval,
	}
}

// Put replicates a write through the shard's leader, returning once a quorum
// has committed and the leader has applied it.
func (s *Session) Put(p *sim.Proc, shard int, key, value []byte) error {
	s.seq++
	key, value = ownedCopy(key, value)
	return s.mutate(p, shard, wire.ReplicaEntry{
		Kind: entryPut, Client: s.id, Seq: s.seq, Key: key, Value: value,
	})
}

// ownedCopy copies key and value into one allocation. A log entry outlives
// whatever it was built from: a proposed one stays in the leader's log — and
// is re-sent to lagging followers — long after the call that proposed it has
// returned (a server request body is recycled once its response is written),
// and a follower's arrives as views into a frame that is not kept.
func ownedCopy(key, value []byte) (k, v []byte) {
	buf := make([]byte, len(key)+len(value))
	n := copy(buf, key)
	copy(buf[n:], value)
	if len(value) > 0 {
		v = buf[n:]
	}
	return buf[:n:n], v
}

// Delete replicates a tombstone.
func (s *Session) Delete(p *sim.Proc, shard int, key []byte) error {
	s.seq++
	key, _ = ownedCopy(key, nil)
	return s.mutate(p, shard, wire.ReplicaEntry{
		Kind: entryDelete, Client: s.id, Seq: s.seq, Key: key,
	})
}

func (s *Session) mutate(p *sim.Proc, shard int, e wire.ReplicaEntry) error {
	var lastErr error = ErrNoLeader
	// Once any attempt ends ambiguously the whole operation is ambiguous:
	// that attempt's entry may commit later, so no subsequent definite
	// rejection can prove the op never applied.
	ambiguous := false
	fail := func(err error) error {
		if ambiguous && Definite(err) {
			return ErrUnknown
		}
		return err
	}
	for attempt := 0; attempt < s.c.opts.RetryAttempts; attempt++ {
		if s.c.stopped {
			return fail(ErrStopped)
		}
		g := s.pickGroup(shard, lastErr)
		if g == nil {
			lastErr = ErrNoLeader
			s.pause(p, attempt)
			continue
		}
		pd, err := g.propose(p, e)
		if err == nil && pd == nil {
			return nil
		}
		if err == nil {
			p.Wait(pd.ev)
			err = pd.err
		}
		if err == nil {
			return nil
		}
		lastErr = err
		if !Definite(err) {
			ambiguous = true
		}
		if err == ErrStopped {
			return fail(err)
		}
		s.pause(p, attempt)
	}
	return fail(lastErr)
}

// Get performs a linearizable read via the leader's read-index (or a stale
// local read when the cluster was built with UnsafeStaleReads).
func (s *Session) Get(p *sim.Proc, shard int, key []byte) ([]byte, bool, error) {
	var lastErr error = ErrNoLeader
	for attempt := 0; attempt < s.c.opts.RetryAttempts; attempt++ {
		if s.c.stopped {
			return nil, false, ErrStopped
		}
		g := s.pickGroup(shard, lastErr)
		if g == nil {
			lastErr = ErrNoLeader
			s.pause(p, attempt)
			continue
		}
		if s.c.opts.UnsafeStaleReads {
			// Broken mode: read whichever replica rotation lands on, no
			// quorum round — exactly the stale-read bug the checker exists
			// to catch.
			rt := s.c.routes[shard]
			s.rrNext++
			g = s.c.nodes[rt.members[s.rrNext%len(rt.members)]].groups[shard]
			v, found, err := g.unsafeRead(p, key)
			if err == nil {
				return v, found, nil
			}
			lastErr = err
			s.pause(p, attempt)
			continue
		}
		rd, err := g.read(p, key)
		if err == nil {
			p.Wait(rd.ev)
			if rd.err == nil {
				return rd.value, rd.found, nil
			}
			err = rd.err
		}
		lastErr = err
		if err == ErrStopped {
			return nil, false, err
		}
		s.pause(p, attempt)
	}
	return nil, false, lastErr
}

// pickGroup chooses which node to contact for a shard: the leader hint from
// the previous error or the routing table when available, otherwise the
// members in rotation.
func (s *Session) pickGroup(shard int, lastErr error) *group {
	rt := s.c.routes[shard]
	if len(rt.members) == 0 {
		return nil
	}
	target := -1
	if nl, ok := lastErr.(*NotLeaderError); ok && nl.Hint >= 0 &&
		containsInt(rt.members, nl.Hint) && s.c.nodes[nl.Hint].running {
		target = nl.Hint
	} else if rt.leader >= 0 && containsInt(rt.members, rt.leader) && s.c.nodes[rt.leader].running {
		target = rt.leader
	} else {
		s.rrNext++
		target = rt.members[s.rrNext%len(rt.members)]
	}
	return s.c.nodes[target].groups[shard]
}

// pause backs off between attempts with jitter, growing with the attempt
// count so retry storms during elections settle quickly.
func (s *Session) pause(p *sim.Proc, attempt int) {
	d := s.backoff * sim.Duration(1+attempt/4)
	jitter := sim.Duration(s.rng.Int63() % int64(s.backoff))
	p.Sleep(d + jitter)
}

func containsInt(v []int, x int) bool {
	for _, e := range v {
		if e == x {
			return true
		}
	}
	return false
}
