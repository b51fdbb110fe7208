package pario

import "sync"

// Server is one dedicated I/O server goroutine: a rank hands completed
// write jobs (its own file, its replica, the parity) to its server and
// goes back to the collective protocol (checksum gathers, manifest
// agreement) while the bytes drain to disk.  Writes execute in
// submission order under the server's Disk; the first failure is
// remembered and later jobs are skipped (the epoch cannot commit anyway,
// and skipping keeps fault schedules deterministic).  Close joins the
// goroutine, so none outlives its Save; the Server value does: Close
// parks it, idle, for a later StartServer to run a goroutine on anew.
type Server struct {
	d    Disk
	jobs chan writeJob
	done sync.WaitGroup
	err  error // the loop's until Close joins it
}

type writeJob struct {
	path string
	data []byte
}

// servers holds the Servers Close parked.
var servers = sync.Pool{New: func() any { return &Server{jobs: make(chan writeJob, 4)} }}

// StartServer launches the I/O server goroutine for d's rank.
func StartServer(d Disk) *Server {
	s := servers.Get().(*Server)
	s.d, s.err = d, nil
	s.done.Add(1)
	go s.loop()
	return s
}

// loop runs the jobs up to Close's empty one.
func (s *Server) loop() {
	defer s.done.Done()
	for j := range s.jobs {
		if j.path == "" {
			return
		}
		if s.err == nil { // else drain: a failed epoch skips the remaining writes
			s.err = s.d.WriteFile(j.path, j.data)
		}
	}
}

// Write enqueues one whole-file write of a non-empty path; ownership of
// data passes to the server.  It never blocks longer than the slowest
// in-flight write.
func (s *Server) Write(path string, data []byte) {
	s.jobs <- writeJob{path: path, data: data}
}

// Close drains the queue, joins the goroutine, parks the server and
// returns the first write failure.  Call it exactly once, and use s no
// more.
func (s *Server) Close() error {
	s.jobs <- writeJob{}
	s.done.Wait()
	err := s.err
	s.d = Disk{}
	servers.Put(s)
	return err
}
