#include "mpi/comm.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace repro::mpi {

bool Comm::try_match(int src, int tag, Packet& out, double& arrival) {
  auto& inbox = ctx_.inbox();
  // Deliveries sit in (time, seq) order, so the first match is the
  // earliest-arriving one — the MPI matching rule for a given (src, tag).
  for (auto it = inbox.begin(); it != inbox.end(); ++it) {
    auto* pkt = it->payload.get_if<Packet>();
    REPRO_REQUIRE(pkt != nullptr, "foreign payload in MPI inbox");
    if (matches(*pkt, src, tag)) {
      out = std::move(*pkt);
      arrival = it->time;
      inbox.erase(it);
      return true;
    }
  }
  return false;
}

void Comm::send_control(int dst, int tag, const RendezvousToken& body) {
  // Control messages are tiny eager sends on the reserved tags; their cost
  // flows through the normal network model.
  MsgBuf payload(&body, sizeof(body));
  const double sent_at = ctx_.now();
  const net::MessageTiming t =
      net_.message(rank(), dst, sizeof(body), ctx_.now(), false);
  if (t.fault_delay > 0.0) {
    net_.attribute_fault_delay(static_cast<int>(rec_.component()),
                               t.fault_delay);
  }
  rec_.record(transfer_kind(), t.sender_busy);
  // Back-pressure on the control channel is control transfer, like any
  // other stall (see perf/recorder.hpp's taxonomy).
  rec_.record_stall(t.sender_stall);
  ctx_.advance(t.sender_busy + t.sender_stall);
  ctx_.post(t.arrival, dst,
            Packet{rank(), tag, std::move(payload), t.recv_copy, sent_at});
}

void Comm::service_rendezvous_requests() {
  for (;;) {
    Packet rts;
    double arrival = 0.0;
    if (!try_match(kAnySource, kRtsTag, rts, arrival)) return;
    RendezvousToken body;
    REPRO_REQUIRE(rts.data.size() == sizeof(body),
                  "malformed rendezvous request");
    std::memcpy(&body, rts.data.data(), sizeof(body));
    send_control(rts.src, kCtsTag, body);
  }
}

void Comm::await_clear_to_send(int dst, unsigned token) {
  const double t0 = ctx_.now();
  for (;;) {
    service_rendezvous_requests();  // avoid exchange deadlocks
    auto& inbox = ctx_.inbox();
    bool found = false;
    for (auto it = inbox.begin(); it != inbox.end(); ++it) {
      const auto* pkt = it->payload.get_if<Packet>();
      if (pkt == nullptr || pkt->src != dst || pkt->tag != kCtsTag) continue;
      // A CTS carries exactly one RendezvousToken; anything else on the
      // control tag is a protocol violation — reject it before reading
      // (the payload may be short).
      REPRO_REQUIRE(pkt->data.size() == sizeof(RendezvousToken),
                    "malformed clear-to-send packet");
      RendezvousToken body;
      std::memcpy(&body, pkt->data.data(), sizeof(body));
      if (body.token != token) continue;
      inbox.erase(it);
      found = true;
      break;
    }
    if (found) break;
    ctx_.block();
  }
  // The handshake wait happens inside the send call: data-transfer time.
  rec_.record(transfer_kind(), ctx_.now() - t0);
}

void Comm::send(int dst, int tag, const void* data, std::size_t bytes,
                bool exchange) {
  REPRO_REQUIRE(dst >= 0 && dst < size(), "send: bad destination");
  ctx_.checkpoint();
  const std::size_t rndv = net_.params().rendezvous_threshold;
  if (rndv > 0 && bytes >= rndv && dst != rank()) {
    const RendezvousToken body{tag, rendezvous_seq_++};
    send_control(dst, kRtsTag, body);
    await_clear_to_send(dst, body.token);
  }
  MsgBuf payload(data, bytes);

  const perf::Kind kind = transfer_kind();
  const double sent_at = ctx_.now();
  if (dst == rank()) {
    // Self-send: a local copy, available immediately.
    const double copy =
        static_cast<double>(bytes) / net_.params().copy_bandwidth;
    rec_.record(kind, copy);
    ctx_.advance(copy);
    if (rec_.timeline() != nullptr) {
      rec_.timeline()->add(sent_at, ctx_.now(), rec_.component(), kind,
                           event_label("copy"), rec_.step_index());
    }
    ctx_.post(ctx_.now(), dst,
              Packet{rank(), tag, std::move(payload), copy, sent_at});
    return;
  }

  const net::MessageTiming t =
      net_.message(rank(), dst, bytes, ctx_.now(), exchange);
  // Injected-fault delay is attributed to the component issuing the send:
  // that is the code path stretched by the perturbation.
  if (t.fault_delay > 0.0) {
    net_.attribute_fault_delay(static_cast<int>(rec_.component()),
                               t.fault_delay);
  }
  rec_.record(kind, t.sender_busy);
  // Back-pressure stalls are control transfer (the sender blocks until the
  // NIC queue drains): synchronization, per perf/recorder.hpp's taxonomy.
  rec_.record_stall(t.sender_stall);
  if (!sync_mode_) rec_.record_bytes(static_cast<double>(bytes));
  ctx_.advance(t.sender_busy + t.sender_stall);
  if (rec_.timeline() != nullptr) {
    const double busy_end = sent_at + t.sender_busy;
    rec_.timeline()->add(sent_at, busy_end, rec_.component(), kind,
                         event_label("send"), rec_.step_index());
    rec_.timeline()->add(busy_end, ctx_.now(), rec_.component(),
                         perf::Kind::kSync, "stall", rec_.step_index());
  }
  ctx_.post(t.arrival, dst,
            Packet{rank(), tag, std::move(payload), t.recv_copy, sent_at});
}

std::size_t Comm::recv(int src, int tag, void* data, std::size_t max_bytes) {
  ctx_.checkpoint();
  const double t0 = ctx_.now();
  Packet pkt;
  double arrival = 0.0;
  for (;;) {
    if (net_.params().rendezvous_threshold > 0) {
      service_rendezvous_requests();
    }
    if (try_match(src, tag, pkt, arrival)) break;
    ctx_.block();
  }
  // Classification follows the paper's instrumentation: all time inside a
  // data-transfer call (including the blocked wait for the message) is
  // communication; control transfer shows up only in the explicit
  // synchronization operations (barriers, CMPI's one-byte exchanges),
  // which is where load imbalance is absorbed because CHARMM synchronizes
  // before its global operations.
  const double waited = ctx_.now() - t0;
  const perf::Kind kind = transfer_kind();
  rec_.record(kind, waited);
  rec_.record(kind, pkt.recv_copy);
  // Byte accounting must mirror the send side: self-sends are local copies,
  // not network traffic, so they book no Figure-7 bytes on either end.
  if (!sync_mode_ && pkt.src != rank()) {
    rec_.record_bytes(static_cast<double>(pkt.data.size()));
  }
  ctx_.advance(pkt.recv_copy);
  if (rec_.timeline() != nullptr) {
    rec_.timeline()->add(t0, ctx_.now(), rec_.component(), kind,
                         event_label("recv"), rec_.step_index());
  }

  const std::size_t n = pkt.data.size();
  REPRO_REQUIRE(n <= max_bytes, "recv: message larger than buffer");
  if (n > 0) std::memcpy(data, pkt.data.data(), n);
  return n;
}

Request Comm::isend(int dst, int tag, const void* data, std::size_t bytes,
                    bool exchange) {
  // Eager send: the transfer is initiated (and paid for) immediately; the
  // request completes at once. Matches MPICH eager-protocol behaviour for
  // the message sizes CHARMM uses with buffered sends.
  send(dst, tag, data, bytes, exchange);
  Request req;
  req.op = Request::Op::kSend;
  req.done = true;
  return req;
}

Request Comm::irecv(int src, int tag, void* data, std::size_t max_bytes) {
  Request req;
  req.op = Request::Op::kRecv;
  req.src = src;
  req.tag = tag;
  req.buf = data;
  req.max_bytes = max_bytes;
  return req;
}

void Comm::wait(Request& req) {
  if (req.done) return;
  if (req.op == Request::Op::kRecv) {
    req.received = recv(req.src, req.tag, req.buf, req.max_bytes);
  }
  req.done = true;
}

void Comm::wait_all(std::vector<Request>& reqs) {
  for (auto& r : reqs) wait(r);
}

void Comm::sendrecv(int dst, int send_tag, const void* send_data,
                    std::size_t send_bytes, int src, int recv_tag,
                    void* recv_data, std::size_t recv_bytes) {
  send(dst, send_tag, send_data, send_bytes, /*exchange=*/true);
  recv(src, recv_tag, recv_data, recv_bytes);
}

void Comm::barrier() {
  if (size() == 1) return;
  SyncScope sync(*this);
  const int tag = next_collective_tag();
  const int p = size();
  const int r = rank();
  // Dissemination barrier: ceil(log2 p) rounds; in round k each rank
  // signals (rank + k) and waits for (rank - k).
  for (int k = 1; k < p; k <<= 1) {
    send((r + k) % p, tag, nullptr, 0);
    recv((r - k + p) % p, tag, nullptr, 0);
  }
}

void Comm::bcast(void* data, std::size_t bytes, int root) {
  if (size() == 1) return;
  const int tag = next_collective_tag();
  switch (collectives_.bcast) {
    case BcastAlgorithm::kBinomialTree:
      bcast_binomial(data, bytes, root, tag);
      return;
    case BcastAlgorithm::kRingPipeline:
      bcast_ring(data, bytes, root, tag);
      return;
  }
  REPRO_UNREACHABLE("bad bcast algorithm");
}

void Comm::bcast_binomial(void* data, std::size_t bytes, int root, int tag) {
  const int p = size();
  const int vrank = (rank() - root + p) % p;
  // Binomial tree (MPICH-1): receive from the parent, then forward to
  // children in decreasing subtree order.
  int mask = 1;
  while (mask < p) {
    if (vrank & mask) {
      const int parent = (vrank - mask + root) % p;
      recv(parent, tag, data, bytes);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (vrank + mask < p) {
      const int child = (vrank + mask + root) % p;
      send(child, tag, data, bytes);
    }
    mask >>= 1;
  }
}

void Comm::bcast_ring(void* data, std::size_t bytes, int root, int tag) {
  // Pipelined around the ring in fixed segments: each rank forwards a
  // segment as soon as it arrives, so large messages stream.
  const int p = size();
  const int r = rank();
  const int right = (r + 1) % p;
  const int left = (r - 1 + p) % p;
  constexpr std::size_t kSegment = 16 * 1024;
  auto* bytes_ptr = static_cast<unsigned char*>(data);
  for (std::size_t at = 0; at < bytes || at == 0; at += kSegment) {
    const std::size_t n = std::min(kSegment, bytes - at);
    if (r != root) recv(left, tag, bytes_ptr + at, n);
    if (right != root) send(right, tag, bytes_ptr + at, n);
    if (bytes == 0) break;
  }
}

int Comm::group_rank(RankGroup group) const {
  REPRO_REQUIRE(group.base >= 0 && group.size >= 1 &&
                    group.base + group.size <= size(),
                "rank group must be a non-empty range of this communicator");
  REPRO_REQUIRE(rank() >= group.base && rank() < group.base + group.size,
                "only the ranks of a group may call its collectives");
  return rank() - group.base;
}

void Comm::reduce_sum(double* data, std::size_t n, int root) {
  if (size() == 1) return;
  reduce_sum(data, n, root, {0, size()}, next_collective_tag());
}

void Comm::reduce_sum(double* data, std::size_t n, int root, RankGroup group,
                      int tag) {
  const int p = group.size;
  const int gr = group_rank(group);
  if (p == 1) return;
  const int vrank = (gr - root + p) % p;
  std::vector<double> tmp(n);
  // Binomial tree, leaves to root, full vector per hop (as MPICH-1 did).
  int mask = 1;
  while (mask < p) {
    if ((vrank & mask) == 0) {
      const int peer = vrank | mask;
      if (peer < p) {
        recv(group.base + (peer + root) % p, tag, tmp.data(),
             n * sizeof(double));
        for (std::size_t i = 0; i < n; ++i) data[i] += tmp[i];
      }
    } else {
      const int peer = group.base + ((vrank & ~mask) + root) % p;
      send(peer, tag, data, n * sizeof(double));
      break;
    }
    mask <<= 1;
  }
}

void Comm::allreduce_sum(double* data, std::size_t n) {
  if (size() == 1) return;
  switch (collectives_.allreduce) {
    case AllreduceAlgorithm::kReduceBcast:
      // MPICH-1 allreduce: reduce to rank 0, then broadcast the result.
      reduce_sum(data, n, 0);
      bcast(data, n * sizeof(double), 0);
      return;
    case AllreduceAlgorithm::kRecursiveDoubling:
      allreduce_recursive_doubling(data, n);
      return;
    case AllreduceAlgorithm::kRing:
      allreduce_ring(data, n);
      return;
  }
  REPRO_UNREACHABLE("bad allreduce algorithm");
}

void Comm::allreduce_recursive_doubling(double* data, std::size_t n) {
  const int p = size();
  const int r = rank();
  const int tag = next_collective_tag();
  std::vector<double> tmp(n);
  // Power-of-two core: non-power ranks fold into a lower partner first
  // (the standard pre/post step), then log2(p') full-vector exchanges.
  int pof2 = 1;
  while (pof2 * 2 <= p) pof2 *= 2;
  const int rem = p - pof2;
  int newrank;
  if (r < 2 * rem) {
    if (r % 2 == 0) {
      send(r + 1, tag, data, n * sizeof(double));
      newrank = -1;  // idle during the core exchange
    } else {
      recv(r - 1, tag, tmp.data(), n * sizeof(double));
      for (std::size_t i = 0; i < n; ++i) data[i] += tmp[i];
      newrank = r / 2;
    }
  } else {
    newrank = r - rem;
  }
  if (newrank >= 0) {
    for (int mask = 1; mask < pof2; mask <<= 1) {
      const int newpeer = newrank ^ mask;
      const int peer = newpeer < rem ? newpeer * 2 + 1 : newpeer + rem;
      sendrecv(peer, tag, data, n * sizeof(double), peer, tag, tmp.data(),
               n * sizeof(double));
      for (std::size_t i = 0; i < n; ++i) data[i] += tmp[i];
    }
  }
  if (r < 2 * rem) {
    if (r % 2 == 1) {
      send(r - 1, tag, data, n * sizeof(double));
    } else {
      recv(r + 1, tag, data, n * sizeof(double));
    }
  }
}

void Comm::allreduce_ring(double* data, std::size_t n) {
  const int p = size();
  const int r = rank();
  if (n < static_cast<std::size_t>(p)) {
    // Too small to segment; fall back to the tree scheme.
    reduce_sum(data, n, 0);
    bcast(data, n * sizeof(double), 0);
    return;
  }
  const int tag = next_collective_tag();
  const int right = (r + 1) % p;
  const int left = (r - 1 + p) % p;
  // Segment boundaries (p chunks, front-loaded remainder).
  std::vector<std::size_t> begin(static_cast<std::size_t>(p) + 1, 0);
  for (int c = 0; c < p; ++c) {
    begin[static_cast<std::size_t>(c) + 1] =
        begin[static_cast<std::size_t>(c)] + n / static_cast<std::size_t>(p) +
        (static_cast<std::size_t>(c) < n % static_cast<std::size_t>(p) ? 1
                                                                       : 0);
  }
  std::vector<double> tmp(n);
  // Reduce-scatter phase: after p-1 steps rank r owns the full sum of
  // chunk (r+1) mod p.
  for (int step = 0; step < p - 1; ++step) {
    const auto send_chunk = static_cast<std::size_t>((r - step + p) % p);
    const auto recv_chunk = static_cast<std::size_t>((r - step - 1 + 2 * p) % p);
    const std::size_t sb = begin[send_chunk];
    const std::size_t rb = begin[recv_chunk];
    const std::size_t sn = begin[send_chunk + 1] - sb;
    const std::size_t rn = begin[recv_chunk + 1] - rb;
    sendrecv(right, tag, data + sb, sn * sizeof(double), left, tag,
             tmp.data(), rn * sizeof(double));
    for (std::size_t i = 0; i < rn; ++i) data[rb + i] += tmp[i];
  }
  // Allgather phase: circulate the finished chunks.
  for (int step = 0; step < p - 1; ++step) {
    const auto send_chunk = static_cast<std::size_t>((r + 1 - step + 2 * p) % p);
    const auto recv_chunk = static_cast<std::size_t>((r - step + 2 * p) % p);
    const std::size_t sb = begin[send_chunk];
    const std::size_t rb = begin[recv_chunk];
    sendrecv(right, tag, data + sb,
             (begin[send_chunk + 1] - sb) * sizeof(double), left, tag,
             data + rb, (begin[recv_chunk + 1] - rb) * sizeof(double));
  }
}

void Comm::allgatherv(const void* send_buf, std::size_t send_bytes,
                      void* recv_buf,
                      const std::vector<std::size_t>& counts,
                      const std::vector<std::size_t>& displs) {
  const int p = size();
  const int r = rank();
  REPRO_REQUIRE(counts.size() == static_cast<std::size_t>(p) &&
                    displs.size() == static_cast<std::size_t>(p),
                "allgatherv: counts/displs must have one entry per rank");
  REPRO_REQUIRE(send_bytes == counts[static_cast<std::size_t>(r)],
                "allgatherv: my block size disagrees with counts[rank]");
  auto* out = static_cast<unsigned char*>(recv_buf);
  // Zero-length blocks are legal (and exercised by the property tests);
  // memcpy with a null source is UB even at n == 0.
  if (send_bytes > 0) {
    std::memcpy(out + displs[static_cast<std::size_t>(r)], send_buf,
                send_bytes);
  }
  if (p == 1) return;

  const int tag = next_collective_tag();
  const int right = (r + 1) % p;
  const int left = (r - 1 + p) % p;
  // Ring: in step s, forward the block that arrived in step s-1 (starting
  // with our own); after p-1 steps every rank holds every block.
  for (int s = 1; s < p; ++s) {
    const auto send_block = static_cast<std::size_t>((r - s + 1 + p) % p);
    const auto recv_block = static_cast<std::size_t>((r - s + p) % p);
    send(right, tag, out + displs[send_block], counts[send_block],
         /*exchange=*/true);
    recv(left, tag, out + displs[recv_block], counts[recv_block]);
  }
}

void Comm::alltoallv(const void* send_buf,
                     const std::vector<std::size_t>& send_counts,
                     const std::vector<std::size_t>& send_displs,
                     void* recv_buf,
                     const std::vector<std::size_t>& recv_counts,
                     const std::vector<std::size_t>& recv_displs) {
  alltoallv(send_buf, send_counts, send_displs, recv_buf, recv_counts,
            recv_displs, {0, size()}, size() > 1 ? next_collective_tag() : 0);
}

void Comm::alltoallv(const void* send_buf,
                     const std::vector<std::size_t>& send_counts,
                     const std::vector<std::size_t>& send_displs,
                     void* recv_buf,
                     const std::vector<std::size_t>& recv_counts,
                     const std::vector<std::size_t>& recv_displs,
                     RankGroup group, int tag) {
  const int p = group.size;
  const int r = group_rank(group);
  REPRO_REQUIRE(send_counts.size() == static_cast<std::size_t>(p) &&
                    recv_counts.size() == static_cast<std::size_t>(p),
                "alltoallv: counts must have one entry per rank");
  const auto* in = static_cast<const unsigned char*>(send_buf);
  auto* out = static_cast<unsigned char*>(recv_buf);
  // Local block (skipped when empty: memcpy/pointer arithmetic on a null
  // buffer is UB even for zero bytes).
  if (send_counts[static_cast<std::size_t>(r)] > 0) {
    std::memcpy(out + recv_displs[static_cast<std::size_t>(r)],
                in + send_displs[static_cast<std::size_t>(r)],
                send_counts[static_cast<std::size_t>(r)]);
  }
  if (p == 1) return;

  // Pairwise exchange: in step k, talk to ranks at distance k.
  for (int k = 1; k < p; ++k) {
    const auto dst = static_cast<std::size_t>((r + k) % p);
    const auto src = static_cast<std::size_t>((r - k + p) % p);
    send(group.base + static_cast<int>(dst), tag, in + send_displs[dst],
         send_counts[dst], /*exchange=*/true);
    recv(group.base + static_cast<int>(src), tag, out + recv_displs[src],
         recv_counts[src]);
  }
}

}  // namespace repro::mpi
