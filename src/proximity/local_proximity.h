// First- and second-order proximity providers (neighbourhood-local measures).

#ifndef SEPRIVGEMB_PROXIMITY_LOCAL_PROXIMITY_H_
#define SEPRIVGEMB_PROXIMITY_LOCAL_PROXIMITY_H_

#include <memory>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "proximity/proximity.h"

namespace sepriv {

/// |N(i) ∩ N(j)| (Barabási & Albert [18]-era classic first-order feature).
class CommonNeighborsProximity : public ProximityProvider {
 public:
  explicit CommonNeighborsProximity(const Graph& graph) : graph_(graph) {}
  std::string Name() const override { return "common_neighbors"; }
  double At(NodeId i, NodeId j) const override;
  std::unique_ptr<ProximityProvider> Clone() const override {
    return std::make_unique<CommonNeighborsProximity>(graph_);
  }

 private:
  const Graph& graph_;
};

/// |N(i) ∩ N(j)| / |N(i) ∪ N(j)|.
class JaccardProximity : public ProximityProvider {
 public:
  explicit JaccardProximity(const Graph& graph) : graph_(graph) {}
  std::string Name() const override { return "jaccard"; }
  double At(NodeId i, NodeId j) const override;
  std::unique_ptr<ProximityProvider> Clone() const override {
    return std::make_unique<JaccardProximity>(graph_);
  }

 private:
  const Graph& graph_;
};

/// d_i * d_j / 2|E| — the "node degree" preference of the paper's
/// SE-PrivGEmb_Deg variant (preferential attachment normalisation), computed
/// from a degree vector rather than a resident Graph. It is the one
/// preference whose oracle state is node-level (O(|V|) degrees), so the
/// in-memory trainer (through MakeProximity) and the out-of-core trainer
/// (from its degree scan) run this one class.
class DegreeVectorProximity : public ProximityProvider {
 public:
  DegreeVectorProximity(std::vector<double> degrees, size_t num_edges)
      : degrees_(std::make_shared<const std::vector<double>>(
            std::move(degrees))),
        inv_two_m_(num_edges > 0 ? 0.5 / static_cast<double>(num_edges)
                                 : 0.0) {}

  std::string Name() const override { return "degree"; }
  double At(NodeId i, NodeId j) const override {
    return (*degrees_)[i] * (*degrees_)[j] * inv_two_m_;
  }
  const std::vector<double>& degrees() const { return *degrees_; }
  std::unique_ptr<ProximityProvider> Clone() const override {
    return std::unique_ptr<ProximityProvider>(new DegreeVectorProximity(*this));
  }

 private:
  DegreeVectorProximity(const DegreeVectorProximity&) = default;

  std::shared_ptr<const std::vector<double>> degrees_;  // shared by clones
  double inv_two_m_;
};

/// Σ_{w ∈ N(i) ∩ N(j)} 1 / log(d_w)  (Adamic–Adar [19]).
class AdamicAdarProximity : public ProximityProvider {
 public:
  explicit AdamicAdarProximity(const Graph& graph) : graph_(graph) {}
  std::string Name() const override { return "adamic_adar"; }
  double At(NodeId i, NodeId j) const override;
  std::unique_ptr<ProximityProvider> Clone() const override {
    return std::make_unique<AdamicAdarProximity>(graph_);
  }

 private:
  const Graph& graph_;
};

/// Σ_{w ∈ N(i) ∩ N(j)} 1 / d_w  (resource allocation [19]).
class ResourceAllocationProximity : public ProximityProvider {
 public:
  explicit ResourceAllocationProximity(const Graph& graph) : graph_(graph) {}
  std::string Name() const override { return "resource_allocation"; }
  double At(NodeId i, NodeId j) const override;
  std::unique_ptr<ProximityProvider> Clone() const override {
    return std::make_unique<ResourceAllocationProximity>(graph_);
  }

 private:
  const Graph& graph_;
};

}  // namespace sepriv

#endif  // SEPRIVGEMB_PROXIMITY_LOCAL_PROXIMITY_H_
