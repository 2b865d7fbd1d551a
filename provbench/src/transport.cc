#include "transport.h"

#include <optional>
#include <utility>

#include "datalog/parser.h"
#include "net/wire.h"
#include "util/mutex.h"

namespace provbench {

namespace wp = whyprov;
namespace net = whyprov::net;

namespace {

/// Bytes a frame occupies on the socket: u32 length + u8 type + body.
constexpr std::size_t kFrameOverhead = 5;

std::uint8_t Code(const wp::util::Status& status) {
  return static_cast<std::uint8_t>(status.code());
}

std::uint64_t HashOf(const std::vector<std::string>& member) {
  MemberHash hash;
  for (const std::string& fact : member) hash.AddFact(fact);
  hash.EndMember();
  return hash.value();
}

/// Parses a Decide candidate against `engine`'s symbol table, under the
/// engine's parse lock (as the C ABI does for wire requests).
wp::util::Result<std::vector<wp::datalog::Fact>> ParseCandidate(
    const wp::Engine& engine, const std::vector<std::string>& texts) {
  const auto state = engine.PinSnapshot();
  const wp::util::MutexLock lock(*state->parse_mutex);
  std::vector<wp::datalog::Fact> facts;
  for (const std::string& text : texts) {
    auto fact = wp::datalog::Parser::ParseFact(state->model.symbols_ptr(), text);
    if (!fact.ok()) return fact.status();
    facts.push_back(std::move(fact).value());
  }
  return facts;
}

}  // namespace

// --- wire ---------------------------------------------------------------------

CallResult WireCaller::Call(const Request& request) {
  CallResult result;
  result.record.request = request;
  const std::uint64_t id = client_.NextRequestId();
  std::uint8_t type = 0;
  std::string body;
  switch (request.op) {
    case Op::kEnumerate: {
      net::EnumerateFrame frame;
      frame.request_id = id;
      frame.target = workload_.targets[request.target];
      frame.max_members = workload_.spec->enumerate_cap;
      frame.deadline_seconds = kRequestDeadlineSeconds;
      frame.stream = 1;
      frame.batch_size = 1;  // the first member frame is the first member
      type = net::kFrameEnumerate;
      body = net::Encode(frame);
      break;
    }
    case Op::kDecide: {
      net::DecideFrame frame;
      frame.request_id = id;
      frame.target = workload_.targets[request.target];
      frame.candidate_facts = workload_.known[request.target][request.member];
      frame.deadline_seconds = kRequestDeadlineSeconds;
      type = net::kFrameDecide;
      body = net::Encode(frame);
      break;
    }
    case Op::kExplain: {
      net::ExplainFrame frame;
      frame.request_id = id;
      frame.target = workload_.targets[request.target];
      frame.member_index = request.member;
      frame.deadline_seconds = kRequestDeadlineSeconds;
      type = net::kFrameExplain;
      body = net::Encode(frame);
      break;
    }
    case Op::kDelta: {
      const Delta delta = workload_.DeltaOf(request);
      net::DeltaFrame frame;
      frame.request_id = id;
      frame.added_facts = delta.added;
      frame.removed_facts = delta.removed;
      frame.deadline_seconds = kRequestDeadlineSeconds;
      type = net::kFrameDelta;
      body = net::Encode(frame);
      break;
    }
  }

  std::uint32_t root = 0;
  std::uint32_t half = 0;
  if (tracer_ != nullptr) {
    tracer_->StartRequest(id);
    root = tracer_->Begin("request", Layer::kRequest, 0);
    half = tracer_->Begin("net.send", Layer::kNet, root);
  }
  result.send = Now();
  Outcome& outcome = result.record.outcome;
  outcome.status = WHYPROV_UNKNOWN;
  const wp::util::Status sent = client_.SendRaw(type, body);
  result.bytes = body.size() + kFrameOverhead;
  result.frames = 1;
  if (tracer_ != nullptr) {
    tracer_->End(half);
    half = tracer_->Begin("net.receive", Layer::kNet, root);
  }

  MemberHash members;
  std::string frame_body;
  while (sent.ok()) {
    std::uint8_t frame_type = 0;
    if (!client_.ReadFrameRaw(&frame_type, &frame_body).ok()) break;
    result.bytes += frame_body.size() + kFrameOverhead;
    ++result.frames;
    if (frame_type == net::kFrameMembers) {
      auto batch = net::DecodeMembers(frame_body);
      if (!batch.ok()) break;
      if (result.first_member == 0) result.first_member = Now();
      for (const auto& member : batch.value().members) {
        for (const std::string& fact : member) members.AddFact(fact);
        members.EndMember();
      }
    } else if (frame_type == net::kFrameFinal) {
      auto final = net::DecodeFinal(frame_body);
      if (!final.ok()) break;
      outcome.status = final.value().status_code;
      result.record.version = final.value().model_version;
      if (request.op == Op::kEnumerate) {
        outcome.hash = members.value();
      } else if (request.op == Op::kDecide) {
        outcome.hash = final.value().verdict;
      } else if (request.op == Op::kExplain) {
        outcome.hash = HashOf(final.value().explanation_member);
      }
      break;
    } else if (frame_type == net::kFrameError) {
      auto error = net::DecodeError(frame_body);
      if (error.ok()) outcome.status = error.value().status_code;
      break;
    }
  }
  result.end = Now();
  if (tracer_ != nullptr) {
    tracer_->End(half);
    tracer_->End(root);
  }
  return result;
}

// --- service ------------------------------------------------------------------

CallResult ServiceCaller::Call(const Request& request) {
  CallResult result;
  result.record.request = request;
  Outcome& outcome = result.record.outcome;
  result.send = Now();
  wp::Request submit;
  submit.deadline_seconds = kRequestDeadlineSeconds;
  switch (request.op) {
    case Op::kEnumerate: {
      wp::EnumerateRequest op;
      op.target_text = workload_.targets[request.target];
      op.max_members = workload_.spec->enumerate_cap;
      submit.op = std::move(op);
      break;
    }
    case Op::kDecide: {
      wp::DecideRequest op;
      op.target_text = workload_.targets[request.target];
      auto candidate = ParseCandidate(
          service_.engine(), workload_.known[request.target][request.member]);
      if (!candidate.ok()) {
        outcome.status = Code(candidate.status());
        result.end = Now();
        return result;
      }
      op.candidate = std::move(candidate).value();
      submit.op = std::move(op);
      break;
    }
    case Op::kExplain: {
      wp::ExplainRequest op;
      op.target_text = workload_.targets[request.target];
      op.member_index = request.member;
      submit.op = std::move(op);
      break;
    }
    case Op::kDelta: {
      Delta delta = workload_.DeltaOf(request);
      wp::DeltaRequest op;
      op.added_fact_texts = std::move(delta.added);
      op.removed_fact_texts = std::move(delta.removed);
      submit.op = std::move(op);
      break;
    }
  }
  auto ticket = service_.Submit(std::move(submit));
  if (!ticket.ok()) {
    outcome.status = Code(ticket.status());
    result.end = Now();
    return result;
  }
  const wp::Response& response = ticket.value().Wait();
  outcome.status = Code(response.status);
  result.record.version = response.model_version;
  result.queue_seconds = response.queue_seconds;
  result.exec_seconds = response.exec_seconds;
  if (response.status.ok()) {
    const wp::Engine& engine = service_.engine();
    if (request.op == Op::kEnumerate) {
      MemberHash hash;
      for (const auto& member : response.members) {
        for (const auto& fact : member) hash.AddFact(engine.FactToText(fact));
        hash.EndMember();
      }
      outcome.hash = hash.value();
    } else if (request.op == Op::kDecide) {
      outcome.hash = response.member ? 1 : 0;
    } else if (request.op == Op::kExplain && response.explanation) {
      MemberHash hash;
      for (const auto& fact : response.explanation->member) {
        hash.AddFact(engine.FactToText(fact));
      }
      hash.EndMember();
      outcome.hash = hash.value();
    }
  }
  result.end = Now();
  return result;
}

// --- in-process ---------------------------------------------------------------

CallResult InProcessCaller::Call(const Request& request) {
  CallResult result;
  result.record.request = request;
  result.record.outcome.status = WHYPROV_OK;
  tracer_.StartRequest(++requests_);
  const std::uint32_t root = tracer_.Begin("request", Layer::kRequest, 0);
  rendered_.clear();
  if (request.op == Op::kDelta) {
    Write(request, root, result);
  } else {
    Read(request, root, result);
  }
  tracer_.End(root);
  result.send = tracer_.at(root).start;
  result.end = tracer_.at(root).end;
  // Hashing is the benchmark's own work: outside the request span.
  if (result.record.outcome.status == WHYPROV_OK &&
      request.op != Op::kDecide && request.op != Op::kDelta) {
    result.record.outcome.hash = HashMembers(rendered_, rendered_.size());
  }
  return result;
}

void InProcessCaller::Render(const std::vector<wp::datalog::Fact>& member,
                             std::uint32_t root) {
  std::vector<std::string> texts;
  texts.reserve(member.size());
  for (const auto& fact : member) {
    const ScopedSpan span(tracer_, "engine.render", Layer::kEngine, root);
    texts.push_back(engine_.FactToText(fact));
  }
  rendered_.push_back(std::move(texts));
}

void InProcessCaller::Read(const Request& request, std::uint32_t root,
                           CallResult& result) {
  Outcome& outcome = result.record.outcome;
  const std::string& target = workload_.targets[request.target];
  std::optional<wp::util::Result<wp::datalog::FactId>> id;
  {
    const ScopedSpan span(tracer_, "engine.resolve", Layer::kEngine, root);
    id.emplace(engine_.FactIdOf(target));
  }
  if (!id->ok()) {
    outcome.status = Code(id->status());
    return;
  }

  const std::size_t misses = engine_.plan_cache_stats().misses;
  const std::uint32_t prepare =
      tracer_.Begin("engine.prepare_hit", Layer::kEngine, root);
  auto prepared = engine_.Prepare(id->value());
  tracer_.End(prepare);
  if (!prepared.ok()) {
    outcome.status = Code(prepared.status());
    return;
  }
  const wp::PreparedQuery& query = prepared.value();
  result.record.version = query.model_version();
  if (engine_.plan_cache_stats().misses != misses) {
    // A miss built the plan: split the prepare span into the phases the
    // plan timed itself.
    tracer_.at(prepare).name = "engine.prepare_miss";
    const double start = tracer_.at(prepare).start;
    const wp::provenance::PlanTimings& timings = query.timings();
    const double encode = start + timings.closure_seconds;
    const double simplify = encode + timings.encode_seconds;
    tracer_.Add("provenance.closure", Layer::kProvenance, prepare, start,
                encode);
    tracer_.Add("provenance.encode", Layer::kProvenance, prepare, encode,
                simplify);
    tracer_.Add("sat.simplify", Layer::kSat, prepare, simplify,
                simplify + timings.simplify_seconds);
    const auto& plan = *query.plan();
    ++counts_.plans_built;
    counts_.closure_facts += static_cast<double>(plan.closure_facts().size());
    if (plan.simplified()) {
      const auto& stats = plan.simplify_stats();
      counts_.cnf_clauses += static_cast<double>(stats.clauses_before);
      counts_.clauses_removed +=
          static_cast<double>(stats.clauses_before) -
          static_cast<double>(stats.clauses_after);
    } else {
      counts_.cnf_clauses += static_cast<double>(plan.formula().num_clauses());
    }
  }

  switch (request.op) {
    case Op::kEnumerate: {
      wp::EnumerateRequest op;
      op.max_members = workload_.spec->enumerate_cap;
      const std::uint32_t load = tracer_.Begin("sat.load", Layer::kSat, root);
      auto enumeration = query.Enumerate(op);
      tracer_.End(load);
      if (!enumeration.ok()) {
        outcome.status = Code(enumeration.status());
        return;
      }
      while (true) {
        const bool first = rendered_.empty();
        const std::uint32_t next = tracer_.Begin(
            first ? "sat.first_member" : "sat.member", Layer::kSat, root);
        auto member = enumeration.value().Next();
        tracer_.End(next);
        if (!member) {
          tracer_.at(next).name = "sat.last_next";
          break;
        }
        if (first) result.first_member = tracer_.at(next).end;
        Render(*member, root);
      }
      const auto& stats = enumeration.value().solver().stats();
      ++counts_.enumerations;
      counts_.conflicts += static_cast<double>(stats.conflicts);
      counts_.propagations += static_cast<double>(stats.propagations);
      break;
    }
    case Op::kDecide: {
      wp::DecideRequest op;
      {
        const ScopedSpan span(tracer_, "datalog.parse", Layer::kDatalog, root);
        auto candidate = ParseCandidate(
            engine_, workload_.known[request.target][request.member]);
        if (!candidate.ok()) {
          outcome.status = Code(candidate.status());
          return;
        }
        op.candidate = std::move(candidate).value();
      }
      std::optional<wp::util::Result<bool>> verdict;
      {
        const ScopedSpan span(tracer_, "sat.decide", Layer::kSat, root);
        verdict.emplace(query.Decide(op));
      }
      if (!verdict->ok()) {
        outcome.status = Code(verdict->status());
        return;
      }
      outcome.hash = verdict->value() ? 1 : 0;
      break;
    }
    case Op::kExplain: {
      wp::ExplainRequest op;
      op.member_index = request.member;
      std::optional<wp::util::Result<wp::Explanation>> explanation;
      {
        const ScopedSpan span(tracer_, "provenance.explain",
                              Layer::kProvenance, root);
        explanation.emplace(query.Explain(op));
      }
      if (!explanation->ok()) {
        outcome.status = Code(explanation->status());
        return;
      }
      Render(explanation->value().member, root);
      break;
    }
    case Op::kDelta:
      break;
  }
}

void InProcessCaller::Write(const Request& request, std::uint32_t root,
                            CallResult& result) {
  Outcome& outcome = result.record.outcome;
  Delta delta = workload_.DeltaOf(request);
  {
    const ScopedSpan span(tracer_, "storage.append", Layer::kStorage, root);
    const wp::util::MutexLock lock(store_.order_mutex());
    const wp::util::Status appended =
        store_.AppendDelta(delta.added, delta.removed);
    if (!appended.ok()) {
      outcome.status = Code(appended);
      return;
    }
  }
  wp::DeltaRequest op;
  op.added_fact_texts = std::move(delta.added);
  op.removed_fact_texts = std::move(delta.removed);
  const std::uint32_t apply =
      tracer_.Begin("engine.apply_delta", Layer::kEngine, root);
  auto stats = engine_.ApplyDelta(op);
  tracer_.End(apply);
  if (!stats.ok()) {
    outcome.status = Code(stats.status());
    return;
  }
  const double start = tracer_.at(apply).start;
  tracer_.Add("datalog.delta_eval", Layer::kDatalog, apply, start,
              start + stats.value().eval_seconds);
  result.record.version = stats.value().model_version;
  ++counts_.deltas;
  counts_.facts_touched += static_cast<double>(stats.value().facts_touched);
  counts_.plans_invalidated +=
      static_cast<double>(stats.value().plans_invalidated);

  const ScopedSpan span(tracer_, "storage.checkpoint", Layer::kStorage, root);
  const wp::util::MutexLock lock(store_.order_mutex());
  if (!store_.ShouldCheckpoint()) {
    tracer_.at(span.handle()).name = "storage.checkpoint_check";
    return;
  }
  const auto state = engine_.PinSnapshot();
  const wp::util::Status written = store_.WriteCheckpoint(
      state->model, state->model_version, *state->parse_mutex);
  if (!written.ok()) outcome.status = Code(written);
}

}  // namespace provbench
