// The v2 binary codec of every payload struct in proto.go.
//
// A codec is three methods: codecID names the struct on the wire,
// appendBin writes its fields in declaration order, readBin reads them
// back. Ints are zigzag varints, strings are length-prefixed (and pass
// through coerceUTF8, as encoding/json would coerce them), lists are a
// count followed by the elements, and a list of length zero decodes to
// nil. codecID and appendBin have value receivers so that Send accepts
// a struct or a pointer to it; readBin assigns every field.
//
// Adding a payload struct: give it the next codec id and the three
// methods, then a row in the tests' samplePayloads table and in
// FuzzCodecDifferential. TestEveryPayloadHasBinaryCodec fails for a
// struct in proto.go that has no codec and no row.

package proto

import "bytes"

// Codec ids are append-only wire constants: never renumber or reuse
// one, and never change the field order behind one.
const (
	codecHeartbeat       byte = 1
	codecJobDone         byte = 2
	codecDynGet          byte = 3
	codecDynGetResp      byte = 4
	codecRegister        byte = 5
	codecSchedState      byte = 6
	codecSchedCommit     byte = 7
	codecSchedCommitResp byte = 8
	codecRunJob          byte = 9
	codecJobSpec         byte = 10
	codecJoin            byte = 11
	codecQSubResp        byte = 12
	codecQStatResp       byte = 13
	codecQDel            byte = 14
	codecKillJob         byte = 15
	codecDynFree         byte = 16
	codecTMDynGet        byte = 17
	codecTMDynFree       byte = 18
	codecTMDone          byte = 19
	codecTMResp          byte = 20
	codecError           byte = 21
	codecSchedDelta      byte = 22
)

// --- mom link ---

func (HeartbeatReq) codecID() byte { return codecHeartbeat }

func (p HeartbeatReq) appendBin(buf *bytes.Buffer) {
	putString(buf, p.Node)
	putVarint(buf, p.Seq)
	putVarint(buf, p.SentMS)
}

func (p *HeartbeatReq) readBin(r *binReader) {
	p.Node = r.str("node")
	p.Seq = r.varint("seq")
	p.SentMS = r.varint("sent_ms")
}

func (JobDoneReq) codecID() byte { return codecJobDone }

func (p JobDoneReq) appendBin(buf *bytes.Buffer) {
	putInt(buf, p.JobID)
	putString(buf, p.Error)
}

func (p *JobDoneReq) readBin(r *binReader) {
	p.JobID = r.int("job_id")
	p.Error = r.str("error")
}

func (DynGetReq) codecID() byte { return codecDynGet }

func (p DynGetReq) appendBin(buf *bytes.Buffer) {
	putInt(buf, p.JobID)
	putInt(buf, p.Cores)
	putInt(buf, p.Nodes)
	putInt(buf, p.PPN)
	putVarint(buf, p.TimeoutSecs)
}

func (p *DynGetReq) readBin(r *binReader) {
	p.JobID = r.int("job_id")
	p.Cores = r.int("cores")
	p.Nodes = r.int("nodes")
	p.PPN = r.int("ppn")
	p.TimeoutSecs = r.varint("timeout_secs")
}

func (DynGetResp) codecID() byte { return codecDynGetResp }

func (p DynGetResp) appendBin(buf *bytes.Buffer) {
	putInt(buf, p.JobID)
	putBool(buf, p.Granted)
	putString(buf, p.Reason)
	putHosts(buf, p.Hosts)
}

func (p *DynGetResp) readBin(r *binReader) {
	p.JobID = r.int("job_id")
	p.Granted = r.bool("granted")
	p.Reason = r.str("reason")
	p.Hosts = r.hosts("hosts")
}

func (RegisterReq) codecID() byte { return codecRegister }

func (p RegisterReq) appendBin(buf *bytes.Buffer) {
	putString(buf, p.Node)
	putString(buf, p.Addr)
	putInt(buf, p.Cores)
	putUvarint(buf, uint64(len(p.Jobs)))
	for _, id := range p.Jobs {
		putInt(buf, id)
	}
}

func (p *RegisterReq) readBin(r *binReader) {
	p.Node = r.str("node")
	p.Addr = r.str("addr")
	p.Cores = r.int("cores")
	p.Jobs = r.ints("jobs")
}

func (DynFreeReq) codecID() byte { return codecDynFree }

func (p DynFreeReq) appendBin(buf *bytes.Buffer) {
	putInt(buf, p.JobID)
	putHosts(buf, p.Hosts)
}

func (p *DynFreeReq) readBin(r *binReader) {
	p.JobID = r.int("job_id")
	p.Hosts = r.hosts("hosts")
}

func (RunJobReq) codecID() byte { return codecRunJob }

func (p RunJobReq) appendBin(buf *bytes.Buffer) {
	putInt(buf, p.JobID)
	p.Spec.appendBin(buf)
	putHosts(buf, p.Hosts)
}

func (p *RunJobReq) readBin(r *binReader) {
	p.JobID = r.int("job_id")
	p.Spec.readBin(r)
	p.Hosts = r.hosts("hosts")
}

func (KillJobReq) codecID() byte { return codecKillJob }

func (p KillJobReq) appendBin(buf *bytes.Buffer) { putInt(buf, p.JobID) }

func (p *KillJobReq) readBin(r *binReader) { p.JobID = r.int("job_id") }

func (JoinReq) codecID() byte { return codecJoin }

func (p JoinReq) appendBin(buf *bytes.Buffer) {
	putInt(buf, p.JobID)
	putBool(buf, p.Dynamic)
	putHosts(buf, p.Hosts)
}

func (p *JoinReq) readBin(r *binReader) {
	p.JobID = r.int("job_id")
	p.Dynamic = r.bool("dynamic")
	p.Hosts = r.hosts("hosts")
}

// --- client commands ---

func (JobSpec) codecID() byte { return codecJobSpec }

func (p JobSpec) appendBin(buf *bytes.Buffer) {
	putString(buf, p.Name)
	putString(buf, p.User)
	putString(buf, p.Group)
	putString(buf, p.Account)
	putInt(buf, p.Cores)
	putInt(buf, p.Nodes)
	putInt(buf, p.PPN)
	putVarint(buf, p.WallSecs)
	putString(buf, p.Script)
	putBool(buf, p.Evolving)
	putVarint(buf, p.SystemPriority)
}

func (p *JobSpec) readBin(r *binReader) {
	p.Name = r.str("name")
	p.User = r.str("user")
	p.Group = r.str("group")
	p.Account = r.str("account")
	p.Cores = r.int("cores")
	p.Nodes = r.int("nodes")
	p.PPN = r.int("ppn")
	p.WallSecs = r.varint("wall_secs")
	p.Script = r.str("script")
	p.Evolving = r.bool("evolving")
	p.SystemPriority = r.varint("sysprio")
}

func (QSubResp) codecID() byte { return codecQSubResp }

func (p QSubResp) appendBin(buf *bytes.Buffer) {
	putInt(buf, p.JobID)
	putString(buf, p.Error)
}

func (p *QSubResp) readBin(r *binReader) {
	p.JobID = r.int("job_id")
	p.Error = r.str("error")
}

func (QDelReq) codecID() byte { return codecQDel }

func (p QDelReq) appendBin(buf *bytes.Buffer) { putInt(buf, p.JobID) }

func (p *QDelReq) readBin(r *binReader) { p.JobID = r.int("job_id") }

func (QStatResp) codecID() byte { return codecQStatResp }

func (p QStatResp) appendBin(buf *bytes.Buffer) {
	putUvarint(buf, uint64(len(p.Jobs)))
	for i := range p.Jobs {
		j := &p.Jobs[i]
		putInt(buf, j.ID)
		putString(buf, j.Name)
		putString(buf, j.User)
		putString(buf, j.State)
		putInt(buf, j.Cores)
		putInt(buf, j.DynCores)
		putFloat64(buf, j.WaitSecs)
		putHosts(buf, j.Hosts)
	}
	putNodes(buf, p.Nodes)
}

func (p *QStatResp) readBin(r *binReader) {
	p.Jobs = nil
	if n := r.count("jobs", 15); n > 0 {
		p.Jobs = make([]JobStatus, n)
	}
	in := interner{}
	for i := range p.Jobs {
		j := &p.Jobs[i]
		j.ID = r.int("jobs.id")
		j.Name = r.str("jobs.name")
		j.User = in.str(r, "jobs.user")
		j.State = in.str(r, "jobs.state")
		j.Cores = r.int("jobs.cores")
		j.DynCores = r.int("jobs.dyn_cores")
		j.WaitSecs = r.f64("jobs.wait_secs")
		j.Hosts = r.hosts("jobs.hosts")
	}
	p.Nodes = r.nodes("nodes", in)
}

func putNodes(buf *bytes.Buffer, ns []NodeStatus) {
	putUvarint(buf, uint64(len(ns)))
	for i := range ns {
		putString(buf, ns[i].Name)
		putInt(buf, ns[i].Cores)
		putInt(buf, ns[i].Used)
		putString(buf, ns[i].State)
	}
}

func (r *binReader) nodes(what string, in interner) []NodeStatus {
	n := r.count(what, 4)
	if n == 0 {
		return nil
	}
	ns := make([]NodeStatus, n)
	for i := range ns {
		ns[i].Name = r.str(what)
		ns[i].Cores = r.int(what)
		ns[i].Used = r.int(what)
		ns[i].State = in.str(r, what)
	}
	return ns
}

func (ErrorResp) codecID() byte { return codecError }

func (p ErrorResp) appendBin(buf *bytes.Buffer) { putString(buf, p.Error) }

func (p *ErrorResp) readBin(r *binReader) { p.Error = r.str("error") }

// --- TM interface ---
//
// The three requests a mom forwards to the server share the field
// layout of the message they become; the conversions stop compiling
// if the two structs ever drift apart.

func (TMDynGetReq) codecID() byte { return codecTMDynGet }

func (p TMDynGetReq) appendBin(buf *bytes.Buffer) { DynGetReq(p).appendBin(buf) }

func (p *TMDynGetReq) readBin(r *binReader) { (*DynGetReq)(p).readBin(r) }

func (TMDynFreeReq) codecID() byte { return codecTMDynFree }

func (p TMDynFreeReq) appendBin(buf *bytes.Buffer) { DynFreeReq(p).appendBin(buf) }

func (p *TMDynFreeReq) readBin(r *binReader) { (*DynFreeReq)(p).readBin(r) }

func (TMDoneReq) codecID() byte { return codecTMDone }

func (p TMDoneReq) appendBin(buf *bytes.Buffer) { JobDoneReq(p).appendBin(buf) }

func (p *TMDoneReq) readBin(r *binReader) { (*JobDoneReq)(p).readBin(r) }

func (TMResp) codecID() byte { return codecTMResp }

func (p TMResp) appendBin(buf *bytes.Buffer) {
	putBool(buf, p.OK)
	putString(buf, p.Reason)
	putHosts(buf, p.Hosts)
}

func (p *TMResp) readBin(r *binReader) {
	p.OK = r.bool("ok")
	p.Reason = r.str("reason")
	p.Hosts = r.hosts("hosts")
}

// --- external scheduler ---

func (SchedState) codecID() byte { return codecSchedState }

// schedJobMinBytes is the shortest SchedJob encoding (13 fields, one
// byte each); schedJobTypBytes sizes the send buffer up front so a
// deep queue does not grow it by doubling.
const (
	schedJobMinBytes = 13
	schedJobTypBytes = 48
)

func (p SchedState) appendBin(buf *bytes.Buffer) {
	buf.Grow(schedJobTypBytes * (len(p.Queued) + len(p.Active)))
	putVarint(buf, p.NowMS)
	putNodes(buf, p.Nodes)
	putSchedJobs(buf, p.Queued)
	putSchedJobs(buf, p.Active)
	putSchedDyn(buf, p.Dyn)
	putUvarint(buf, p.Serial)
}

func (p *SchedState) readBin(r *binReader) {
	in := interner{}
	p.NowMS = r.varint("now_ms")
	p.Nodes = r.nodes("nodes", in)
	p.Queued = r.schedJobs("queued", in)
	p.Active = r.schedJobs("active", in)
	p.Dyn = r.schedDyn("dyn")
	p.Serial = r.uvarint("serial")
}

func (SchedDelta) codecID() byte { return codecSchedDelta }

func (p SchedDelta) appendBin(buf *bytes.Buffer) {
	putVarint(buf, p.NowMS)
	putNodes(buf, p.Nodes)
	putSchedJobs(buf, p.Jobs)
	putSchedJobs(buf, p.Tail)
	putSchedDyn(buf, p.Dyn)
	putUvarint(buf, p.Serial)
}

func (p *SchedDelta) readBin(r *binReader) {
	in := interner{}
	p.NowMS = r.varint("now_ms")
	p.Nodes = r.nodes("nodes", in)
	p.Jobs = r.schedJobs("jobs", in)
	p.Tail = r.schedJobs("tail", in)
	p.Dyn = r.schedDyn("dyn")
	p.Serial = r.uvarint("serial")
}

func putSchedDyn(buf *bytes.Buffer, ds []SchedDynReq) {
	putUvarint(buf, uint64(len(ds)))
	for i := range ds {
		d := &ds[i]
		putInt(buf, d.JobID)
		putInt(buf, d.Cores)
		putInt(buf, d.Nodes)
		putInt(buf, d.PPN)
		putInt(buf, d.Seq)
		putVarint(buf, d.DeadlineMS)
	}
}

func (r *binReader) schedDyn(what string) []SchedDynReq {
	n := r.count(what, 6)
	if n == 0 {
		return nil
	}
	ds := make([]SchedDynReq, n)
	for i := range ds {
		d := &ds[i]
		d.JobID = r.int(what)
		d.Cores = r.int(what)
		d.Nodes = r.int(what)
		d.PPN = r.int(what)
		d.Seq = r.int(what)
		d.DeadlineMS = r.varint(what)
	}
	return ds
}

func putSchedJobs(buf *bytes.Buffer, js []SchedJob) {
	putUvarint(buf, uint64(len(js)))
	for i := range js {
		j := &js[i]
		putInt(buf, j.ID)
		putString(buf, j.Name)
		putString(buf, j.User)
		putString(buf, j.Group)
		putString(buf, j.State)
		putInt(buf, j.Cores)
		putInt(buf, j.DynCores)
		putVarint(buf, j.WallSecs)
		putVarint(buf, j.SubmitMS)
		putVarint(buf, j.StartMS)
		putVarint(buf, j.SysPrio)
		putBool(buf, j.Evolving)
		putBool(buf, j.Backfilled)
	}
}

func (r *binReader) schedJobs(what string, in interner) []SchedJob {
	n := r.count(what, schedJobMinBytes)
	if n == 0 {
		return nil
	}
	js := make([]SchedJob, n)
	for i := range js {
		j := &js[i]
		j.ID = r.int(what)
		j.Name = r.str(what)
		j.User = in.str(r, what)
		j.Group = in.str(r, what)
		j.State = in.str(r, what)
		j.Cores = r.int(what)
		j.DynCores = r.int(what)
		j.WallSecs = r.varint(what)
		j.SubmitMS = r.varint(what)
		j.StartMS = r.varint(what)
		j.SysPrio = r.varint(what)
		j.Evolving = r.bool(what)
		j.Backfilled = r.bool(what)
	}
	return js
}

func (SchedCommit) codecID() byte { return codecSchedCommit }

func (p SchedCommit) appendBin(buf *bytes.Buffer) {
	putUvarint(buf, p.Serial)
	putUvarint(buf, uint64(len(p.Actions)))
	for i := range p.Actions {
		putString(buf, p.Actions[i].Kind)
		putInt(buf, p.Actions[i].JobID)
		putString(buf, p.Actions[i].Reason)
	}
}

func (p *SchedCommit) readBin(r *binReader) {
	p.Serial = r.uvarint("serial")
	p.Actions = nil
	if n := r.count("actions", 3); n > 0 {
		p.Actions = make([]SchedAction, n)
	}
	for i := range p.Actions {
		p.Actions[i].Kind = r.str("actions.kind")
		p.Actions[i].JobID = r.int("actions.job_id")
		p.Actions[i].Reason = r.str("actions.reason")
	}
}

func (SchedCommitResp) codecID() byte { return codecSchedCommitResp }

func (p SchedCommitResp) appendBin(buf *bytes.Buffer) {
	putInt(buf, p.Applied)
	putInt(buf, p.Skipped)
}

func (p *SchedCommitResp) readBin(r *binReader) {
	p.Applied = r.int("applied")
	p.Skipped = r.int("skipped")
}
