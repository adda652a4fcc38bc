//! Controller adapters: `vtkMonaController` / `vtkMPIController`.

use std::sync::Arc;

use vizkit::VtkComm;

/// A `VtkComm` backed by a MoNA communicator (the paper's
/// `vtkMonaCommunicator`/`vtkMonaController`).
pub struct MonaVtkComm {
    comm: mona::Communicator,
}

impl MonaVtkComm {
    /// Wraps a MoNA communicator.
    pub fn new(comm: mona::Communicator) -> Arc<Self> {
        Arc::new(Self { comm })
    }

    /// The underlying communicator.
    pub fn inner(&self) -> &mona::Communicator {
        &self.comm
    }
}

impl VtkComm for MonaVtkComm {
    fn rank(&self) -> usize {
        self.comm.rank()
    }

    fn size(&self) -> usize {
        self.comm.size()
    }

    fn kind(&self) -> &'static str {
        "mona"
    }

    fn send(&self, data: &[u8], dst: usize, tag: u16) -> Result<(), String> {
        self.comm.send(data, dst, tag).map_err(|e| e.to_string())
    }

    fn recv(&self, src: usize, tag: u16) -> Result<Vec<u8>, String> {
        self.comm
            .recv(src, tag)
            .map(|b| b.to_vec())
            .map_err(|e| e.to_string())
    }

    fn bcast(&self, data: Option<&[u8]>, root: usize) -> Result<Vec<u8>, String> {
        self.comm
            .bcast(data, root)
            .map(|b| b.to_vec())
            .map_err(|e| e.to_string())
    }

    fn reduce(
        &self,
        data: &[u8],
        op: &(dyn Fn(&mut [u8], &[u8]) + Sync),
        root: usize,
    ) -> Result<Option<Vec<u8>>, String> {
        self.comm.reduce(data, &op, root).map_err(|e| e.to_string())
    }

    fn gather(&self, data: &[u8], root: usize) -> Result<Option<Vec<Vec<u8>>>, String> {
        self.comm
            .gather(data, root)
            .map(|o| o.map(|parts| parts.iter().map(|p| p.to_vec()).collect()))
            .map_err(|e| e.to_string())
    }

    fn barrier(&self) -> Result<(), String> {
        self.comm.barrier().map_err(|e| e.to_string())
    }

    fn allreduce(
        &self,
        data: &[u8],
        op: &(dyn Fn(&mut [u8], &[u8]) + Sync),
    ) -> Result<Vec<u8>, String> {
        // Native single-collective allreduce: MoNA picks Rabenseifner or a
        // pipelined tree by size, instead of the default reduce+bcast pair.
        self.comm
            .allreduce(data, &op)
            .map(|b| b.to_vec())
            .map_err(|e| e.to_string())
    }
}

/// A `VtkComm` backed by a minimpi communicator (`vtkMPIController`).
pub struct MpiVtkComm {
    comm: minimpi::MpiComm,
}

impl MpiVtkComm {
    /// Wraps an MPI communicator.
    pub fn new(comm: minimpi::MpiComm) -> Arc<Self> {
        Arc::new(Self { comm })
    }

    /// The underlying communicator.
    pub fn inner(&self) -> &minimpi::MpiComm {
        &self.comm
    }
}

impl VtkComm for MpiVtkComm {
    fn rank(&self) -> usize {
        self.comm.rank()
    }

    fn size(&self) -> usize {
        self.comm.size()
    }

    fn kind(&self) -> &'static str {
        "mpi"
    }

    fn send(&self, data: &[u8], dst: usize, tag: u16) -> Result<(), String> {
        self.comm.send(data, dst, tag).map_err(|e| e.to_string())
    }

    fn recv(&self, src: usize, tag: u16) -> Result<Vec<u8>, String> {
        self.comm
            .recv(src, tag)
            .map(|b| b.to_vec())
            .map_err(|e| e.to_string())
    }

    fn bcast(&self, data: Option<&[u8]>, root: usize) -> Result<Vec<u8>, String> {
        self.comm
            .bcast(data, root)
            .map(|b| b.to_vec())
            .map_err(|e| e.to_string())
    }

    fn reduce(
        &self,
        data: &[u8],
        op: &(dyn Fn(&mut [u8], &[u8]) + Sync),
        root: usize,
    ) -> Result<Option<Vec<u8>>, String> {
        self.comm.reduce(data, &op, root).map_err(|e| e.to_string())
    }

    fn gather(&self, data: &[u8], root: usize) -> Result<Option<Vec<Vec<u8>>>, String> {
        self.comm
            .gather(data, root)
            .map(|o| o.map(|parts| parts.iter().map(|p| p.to_vec()).collect()))
            .map_err(|e| e.to_string())
    }

    fn barrier(&self) -> Result<(), String> {
        self.comm.barrier().map_err(|e| e.to_string())
    }

    fn allreduce(
        &self,
        data: &[u8],
        op: &(dyn Fn(&mut [u8], &[u8]) + Sync),
    ) -> Result<Vec<u8>, String> {
        self.comm.allreduce(data, &op).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mona_adapter_collectives_work() {
        let out = mona::testing::with_comm(4, mona::MonaConfig::default(), |comm| {
            let vtk = MonaVtkComm::new(comm);
            assert_eq!(vtk.kind(), "mona");
            let got = vtk.bcast((vtk.rank() == 0).then_some(&[7u8][..]), 0).unwrap();
            let red = vtk
                .reduce(&[vtk.rank() as u8], &|a, b| a[0] += b[0], 0)
                .unwrap();
            vtk.barrier().unwrap();
            (got, red)
        });
        for (rank, (got, red)) in out.into_iter().enumerate() {
            assert_eq!(got, vec![7]);
            if rank == 0 {
                assert_eq!(red.unwrap(), vec![1 + 2 + 3]);
            } else {
                assert!(red.is_none());
            }
        }
    }

    #[test]
    fn mpi_adapter_collectives_work() {
        let out = minimpi::MpiWorld::run(3, minimpi::Profile::Vendor, |comm| {
            let vtk = MpiVtkComm::new(comm);
            assert_eq!(vtk.kind(), "mpi");
            let g = vtk.gather(&[vtk.rank() as u8 * 2], 1).unwrap();
            vtk.barrier().unwrap();
            g
        });
        assert_eq!(out[1].as_ref().unwrap(), &vec![vec![0], vec![2], vec![4]]);
        assert!(out[0].is_none() && out[2].is_none());
    }

    #[test]
    fn adapters_p2p_roundtrip() {
        let out = mona::testing::with_comm(2, mona::MonaConfig::default(), |comm| {
            let vtk = MonaVtkComm::new(comm);
            if vtk.rank() == 0 {
                vtk.send(b"abc", 1, 3).unwrap();
                Vec::new()
            } else {
                vtk.recv(0, 3).unwrap()
            }
        });
        assert_eq!(out[1], b"abc");
    }
}
