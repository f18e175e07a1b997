#include "core/instance_context.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "nt/numtheory.hpp"
#include "util/require.hpp"

namespace dbr::core {

std::optional<std::size_t> PsiFamilyIndex::first_avoiding(
    std::span<const Word> faulty_edge_words) const {
  // Each fault rules out at most the one member traversing it, so at most
  // f + 1 candidates are tried, each against every fault.
  for (std::size_t i = 0; i < cycles.size(); ++i) {
    const auto hits_i = [this, i](Word e) {
      return e < member_by_edge.size() && member_by_edge[e] == i;
    };
    if (std::none_of(faulty_edge_words.begin(), faulty_edge_words.end(),
                     hits_i)) {
      return i;
    }
  }
  return std::nullopt;
}

InstanceContext::InstanceContext(Digit base, unsigned n) : graph_(base, n) {}

std::shared_ptr<const InstanceContext> InstanceContext::make(Digit base,
                                                             unsigned n) {
  return std::make_shared<const InstanceContext>(base, n);
}

const NecklaceTable& InstanceContext::necklaces() const {
  std::call_once(necklace_once_, [this] {
    const WordSpace& ws = words();
    NecklaceTable t;
    const Word unset = ws.size();
    t.min_rot.assign(ws.size(), unset);
    // Ascending scan: the first unassigned member of a rotation class is its
    // minimum, so one walk per necklace labels the whole class.
    for (Word x = 0; x < ws.size(); ++x) {
      if (t.min_rot[x] != unset) continue;
      t.reps.push_back(x);
      Word v = x;
      do {
        t.min_rot[v] = x;
        v = ws.rotate_left(v, 1);
      } while (v != x);
    }
    necklace_table_ = std::move(t);
  });
  return necklace_table_;
}

const LabelMergeTable& InstanceContext::label_merge() const {
  std::call_once(label_merge_once_, [this] {
    const NecklaceTable& nt = necklaces();
    const WordSpace& ws = words();
    const Word size = ws.size();
    require(nt.reps.size() <
                std::numeric_limits<std::uint32_t>::max(),
            "necklace count exceeds the 32-bit index range");
    const Word d = ws.radix();
    const Word suffix_count = size / d;
    LabelMergeTable t;
    t.necklace_index.assign(size, 0);
    t.rot_next.assign(size, 0);
    t.members.reserve(size);
    t.member_begin.reserve(nt.reps.size() + 1);
    t.member_begin.push_back(0);
    // Section 2.2: a.w and b.w (a != b) never share a necklace, i.e. the
    // members of a necklace have pairwise-distinct (n-1)-suffixes. Every
    // FFC solve reads a necklace's node with a given label off a lookup,
    // so the property is checked here, once per context and for every
    // label, with a set of suffixes cleared after each necklace.
    BitVec suffix_seen;
    suffix_seen.assign(suffix_count, false);
    std::vector<Word> suffixes;
    for (std::uint32_t i = 0; i < nt.reps.size(); ++i) {
      suffixes.clear();
      Word v = nt.reps[i];
      do {
        const Word head = v / suffix_count;
        const Word suffix = v - head * suffix_count;
        ensure(!suffix_seen.test(suffix),
               "a.w and b.w cannot share a necklace (Section 2.2)");
        suffix_seen.set(suffix);
        suffixes.push_back(suffix);
        t.necklace_index[v] = i;
        t.members.push_back(v);
        const Word next = suffix * d + head;  // rotate_left(v, 1)
        t.rot_next[v] = next;
        v = next;
      } while (v != nt.reps[i]);
      for (Word suffix : suffixes) suffix_seen.reset(suffix);
      t.member_begin.push_back(t.members.size());
    }
    label_merge_table_ = std::move(t);
  });
  return label_merge_table_;
}

const PsiFamilyIndex& InstanceContext::psi_family() const {
  require(supports_edge_faults(), "psi family requires n >= 2");
  std::call_once(psi_once_, [this] {
    PsiFamilyIndex fam;
    fam.cycles = disjoint_hamiltonian_cycles(base(), words().length());
    require(fam.cycles.size() < PsiFamilyIndex::kNoMember,
            "psi(d) exceeds the 16-bit member index");
    fam.member_by_edge.assign(words().edge_word_count(),
                              PsiFamilyIndex::kNoMember);
    for (std::uint16_t i = 0; i < fam.cycles.size(); ++i) {
      for (Word e : edge_words(words(), fam.cycles[i])) {
        ensure(fam.member_by_edge[e] == PsiFamilyIndex::kNoMember,
               "psi-family members are pairwise edge-disjoint "
               "(Proposition 3.1)");
        fam.member_by_edge[e] = i;
      }
    }
    psi_ = std::move(fam);
  });
  return psi_;
}

const MaximalCycleFamily& InstanceContext::maximal_family(
    std::uint64_t prime_power) const {
  require(supports_edge_faults(),
          "maximal-cycle machinery requires n >= 2");
  std::call_once(phi_once_, [this] {
    // One family per prime-power factor of the base: exactly the leaves the
    // phi-recursion of Proposition 3.3 can reach for this instance.
    for (const auto& pp : nt::factor(base())) {
      auto field = std::make_unique<gf::Field>(pp.value());
      auto family =
          std::make_unique<MaximalCycleFamily>(*field, words().length());
      families_.emplace(pp.value(), std::move(family));
      fields_.push_back(std::move(field));
    }
  });
  const auto it = families_.find(prime_power);
  require(it != families_.end(),
          "prime power is not a factor of the instance base");
  return *it->second;
}

bool InstanceContext::supports_butterfly() const {
  return std::gcd<std::uint64_t, std::uint64_t>(base(), words().length()) == 1;
}

const ButterflyDigraph& InstanceContext::butterfly() const {
  require(supports_butterfly(), "butterfly lift requires gcd(d, n) = 1");
  std::call_once(butterfly_once_, [this] {
    butterfly_ = std::make_unique<ButterflyDigraph>(base(), words().length());
  });
  return *butterfly_;
}

}  // namespace dbr::core
